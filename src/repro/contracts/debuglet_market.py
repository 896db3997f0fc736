"""The Debuglet marketplace smart contract (§IV-C).

Implements the paper's four state maps and entry functions:

- ``ExecutorAddressMap`` — ``"<AS>:<intf>"`` → executor node address;
- ``ExecutionSlotsMap`` — ``"<AS>:<intf>"`` → sorted, non-overlapping
  execution slots (cores, memory, bandwidth, start/end, price);
- ``ApplicationsMap`` — ``"<AS_c>:<intf_c>|<AS_s>:<intf_s>|<t0>|<t1>"`` →
  list of application object IDs stored on-chain;
- ``ResultsMap`` — application object ID → result object ID.

Entry functions: ``register_executor``, ``register_time_slot``,
``lookup_slot``, ``purchase_slot``, ``result_ready``, ``lookup_result``.
Payment is escrowed in the application objects at purchase time and paid
out to the executor by ``result_ready`` — enforcement by code, not trust.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.chain.contract import Contract, ExecutionContext, entry
from repro.common.ids import ObjectId

APPLICATION_KIND = "debuglet_application"
RESULT_KIND = "debuglet_result"


@dataclass(frozen=True)
class ExecutionSlot:
    """The 5-tuple a slot is advertised as (§IV-C, ExecutionSlotsMap)."""

    cores: int
    memory_mb: int
    bandwidth_mbps: int
    start: float
    end: float
    price: int  # MIST

    def as_dict(self) -> dict:
        return {
            "cores": self.cores,
            "memory_mb": self.memory_mb,
            "bandwidth_mbps": self.bandwidth_mbps,
            "start": self.start,
            "end": self.end,
            "price": self.price,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionSlot":
        return cls(
            cores=data["cores"],
            memory_mb=data["memory_mb"],
            bandwidth_mbps=data["bandwidth_mbps"],
            start=data["start"],
            end=data["end"],
            price=data["price"],
        )

    def fits(self, cores: int, memory_mb: int, bandwidth_mbps: int) -> bool:
        return (
            self.cores >= cores
            and self.memory_mb >= memory_mb
            and self.bandwidth_mbps >= bandwidth_mbps
        )

    def covers(self, start: float, end: float) -> bool:
        return self.start <= start and self.end >= end


def slot_key(asn: int, interface: int) -> str:
    """The ``<AS, intf>`` map key."""
    return f"{asn}:{interface}"


def applications_key(
    asn_c: int, intf_c: int, asn_s: int, intf_s: int, start: float, end: float
) -> str:
    return f"{asn_c}:{intf_c}|{asn_s}:{intf_s}|{start}|{end}"


class DebugletMarket(Contract):
    """The marketplace contract."""

    name = "debuglet_market"

    #: Sentinel recorded in the undo log for keys that did not exist.
    _ABSENT = object()

    def __init__(self) -> None:
        super().__init__()
        self.state = {
            "executor_address_map": {},  # "asn:intf" -> address
            "execution_slots_map": {},  # "asn:intf" -> [slot dict, ...]
            "applications_map": {},  # composite key -> [app id hex, ...]
            "results_map": {},  # app id hex -> result id hex
            "stake_map": {},  # "asn:intf" -> staked MIST (slashable)
            "conviction_map": {},  # "asn:intf" -> [conviction dict, ...]
            "auditor_map": {},  # "auditor" -> address (first-come)
        }
        self._journal: list[tuple[str, str, object]] | None = None

    # ------------------------------------------------- journaled mutation
    #
    # Every state write funnels through :meth:`_set`, which records the
    # key's old value (or absence) in a per-call undo log. That lets the
    # ledger roll a reverted call back by undoing the handful of touched
    # keys instead of deep-copying all four maps around every transaction
    # (the Contract.snapshot fallback, kept as the correctness oracle).
    # The invariant that makes this sound: values bound into the maps are
    # never mutated in place afterwards — rebinding via _set is the only
    # mutation path.

    def _set(self, map_name: str, key: str, value: object) -> None:
        target = self.state[map_name]
        if self._journal is not None:
            self._journal.append((map_name, key, target.get(key, self._ABSENT)))
        target[key] = value

    def _delete(self, map_name: str, key: str) -> None:
        """Journaled key removal. Rollback restores the recorded old
        value; a key that was absent rolls back via the ``_ABSENT``
        branch, which is a no-op delete of an already-missing key guarded
        below."""
        target = self.state[map_name]
        if key not in target:
            return
        if self._journal is not None:
            self._journal.append((map_name, key, target[key]))
        del target[key]

    def journal_begin(self) -> bool:
        self._journal = []
        return True

    def journal_commit(self) -> None:
        self._journal = None

    def journal_rollback(self) -> None:
        journal = self._journal if self._journal is not None else []
        self._journal = None
        for map_name, key, old in reversed(journal):
            if old is self._ABSENT:
                del self.state[map_name][key]
            else:
                self.state[map_name][key] = old

    # ----------------------------------------------------- bootstrapping

    @entry
    def register_executor(self, ctx: ExecutionContext, asn: int, interface: int) -> str:
        """Bind ``<asn, interface>`` to the caller's address.

        Re-registration by a *different* address aborts: an executor
        identity cannot be hijacked once claimed. Tokens attached to the
        call are escrowed as slashable stake (DESIGN.md §13): burned on
        conviction by the auditor, withdrawable otherwise.
        """
        key = slot_key(asn, interface)
        existing = self.state["executor_address_map"].get(key)
        ctx.require(
            existing is None or existing == ctx.sender,
            f"executor {key} already registered to another address",
        )
        self._set("executor_address_map", key, ctx.sender)
        if ctx.value > 0:
            staked = self.state["stake_map"].get(key, 0) + ctx.value
            self._set("stake_map", key, staked)
            ctx.emit("StakeDeposited", asn=asn, interface=interface, stake=staked)
        ctx.emit("ExecutorRegistered", asn=asn, interface=interface, address=ctx.sender)
        return key

    @entry
    def deposit_stake(self, ctx: ExecutionContext, asn: int, interface: int) -> int:
        """Top up the slashable stake for an already-registered executor."""
        key = slot_key(asn, interface)
        registered = self.state["executor_address_map"].get(key)
        ctx.require(registered is not None, f"executor {key} is not registered")
        ctx.require(registered == ctx.sender, "caller does not own this executor")
        ctx.require(ctx.value > 0, "stake deposit requires attached tokens")
        staked = self.state["stake_map"].get(key, 0) + ctx.value
        self._set("stake_map", key, staked)
        ctx.emit("StakeDeposited", asn=asn, interface=interface, stake=staked)
        return staked

    @entry
    def withdraw_stake(self, ctx: ExecutionContext, asn: int, interface: int) -> int:
        """Withdraw the full stake; only unconvicted executors may exit."""
        key = slot_key(asn, interface)
        registered = self.state["executor_address_map"].get(key)
        ctx.require(registered is not None, f"executor {key} is not registered")
        ctx.require(registered == ctx.sender, "caller does not own this executor")
        ctx.require(
            not self.state["conviction_map"].get(key),
            "stake of a convicted executor is forfeit",
        )
        stake = self.state["stake_map"].get(key, 0)
        ctx.require(stake > 0, "no stake to withdraw")
        self._set("stake_map", key, 0)
        ctx.transfer_from_contract(ctx.sender, stake)
        ctx.emit("StakeWithdrawn", asn=asn, interface=interface, stake=stake)
        return stake

    @entry
    def register_auditor(self, ctx: ExecutionContext) -> str:
        """Claim the marketplace auditor role (first come, non-hijackable).

        The reproduction models one trusted auditor per marketplace — the
        paper's initiator-side verification collapsed into a single
        principal. Re-registration by the same address is idempotent.
        """
        existing = self.state["auditor_map"].get("auditor")
        ctx.require(
            existing is None or existing == ctx.sender,
            "auditor role already claimed by another address",
        )
        self._set("auditor_map", "auditor", ctx.sender)
        ctx.emit("AuditorRegistered", address=ctx.sender)
        return ctx.sender

    @entry
    def slash_executor(
        self,
        ctx: ExecutionContext,
        asn: int,
        interface: int,
        application_id_hex: str,
        evidence_hash: bytes,
        reason: str,
    ) -> int:
        """Convict an executor of misbehavior on one application.

        Auditor-only. Burns the executor's entire remaining stake into the
        ledger's ``tokens_slashed`` sink (nobody is paid, so framing is
        profitless), records the conviction with its 32-byte evidence hash
        on-chain, and — pay-xor-refund-xor-slash — returns the
        application's still-escrowed payment to the initiator when the
        forged result was not yet paid out. A convicted executor can never
        publish again (``result_ready`` refuses) and its stake is forfeit.
        At most one conviction per (executor, application).
        """
        auditor = self.state["auditor_map"].get("auditor")
        ctx.require(auditor is not None, "no auditor registered")
        ctx.require(ctx.sender == auditor, "only the auditor may slash")
        ctx.require(len(evidence_hash) == 32, "evidence hash must be 32 bytes")
        key = slot_key(asn, interface)
        ctx.require(
            self.state["executor_address_map"].get(key) is not None,
            f"executor {key} is not registered",
        )
        convictions = self.state["conviction_map"].get(key, [])
        ctx.require(
            all(c["application"] != application_id_hex for c in convictions),
            "executor already convicted for this application",
        )

        app_id = ObjectId.from_hex(application_id_hex)
        app = ctx.objects.get(app_id)
        ctx.require(app.kind == APPLICATION_KIND, "object is not an application")
        ctx.require(
            app.data["asn"] == asn and app.data["interface"] == interface,
            "application was not assigned to this executor",
        )

        burned = self.state["stake_map"].get(key, 0)
        if burned > 0:
            self._set("stake_map", key, 0)
            ctx.burn_from_contract(burned)

        # Protective refund: if the convicted application's escrow was
        # neither paid out nor refunded, hand it back to the initiator so
        # a conviction leaves no tokens stranded in the contract.
        refunded = 0
        if (
            application_id_hex not in self.state["results_map"]
            and not app.data.get("refunded")
        ):
            refunded = app.data["tokens"]
            data = dict(app.data)
            data["refunded"] = True
            ctx.update_object(app_id, data)
            ctx.transfer_from_contract(app.data["initiator"], refunded)

        conviction = {
            "application": application_id_hex,
            "evidence": evidence_hash.hex(),
            "reason": reason,
            "time": ctx.time,
            "slashed": burned,
            "refunded": refunded,
        }
        self._set("conviction_map", key, convictions + [conviction])
        ctx.emit(
            "ExecutorSlashed",
            asn=asn,
            interface=interface,
            application_id=application_id_hex,
            slashed=burned,
            evidence=evidence_hash.hex(),
            reason=reason,
        )
        return burned

    @entry
    def register_time_slot(
        self, ctx: ExecutionContext, asn: int, interface: int, slots: list
    ) -> int:
        """Advertise available execution slots for ``<asn, interface>``.

        ``slots`` is a list of slot dicts. The caller must be the
        registered executor. Slots must not overlap existing ones; the
        merged list is kept sorted by start time.
        """
        key = slot_key(asn, interface)
        registered = self.state["executor_address_map"].get(key)
        ctx.require(registered is not None, f"executor {key} is not registered")
        ctx.require(registered == ctx.sender, "caller does not own this executor")

        new_slots = [ExecutionSlot.from_dict(s) for s in slots]
        for slot in new_slots:
            ctx.require(slot.end > slot.start, "slot must have positive duration")
            ctx.require(slot.price >= 0, "slot price must be non-negative")
        current = [
            ExecutionSlot.from_dict(s)
            for s in self.state["execution_slots_map"].get(key, [])
        ]
        merged = sorted(current + new_slots, key=lambda s: (s.start, s.end))
        for a, b in zip(merged, merged[1:]):
            ctx.require(a.end <= b.start, f"slots overlap at t={b.start}")
        self._set("execution_slots_map", key, [s.as_dict() for s in merged])
        ctx.emit("TimeSlotsRegistered", asn=asn, interface=interface, count=len(slots))
        return len(merged)

    @entry
    def withdraw_time_slots(self, ctx: ExecutionContext, asn: int, interface: int) -> int:
        """Withdraw every still-advertised (unsold) slot for ``<asn, interface>``.

        Only the registered executor may renege on its own inventory.
        Already-sold slots are unaffected — their escrow is settled by
        ``result_ready`` or ``refund_expired``. Returns the count removed.
        """
        key = slot_key(asn, interface)
        registered = self.state["executor_address_map"].get(key)
        ctx.require(registered is not None, f"executor {key} is not registered")
        ctx.require(registered == ctx.sender, "caller does not own this executor")
        withdrawn = len(self.state["execution_slots_map"].get(key, []))
        self._set("execution_slots_map", key, [])
        ctx.emit(
            "TimeSlotsWithdrawn", asn=asn, interface=interface, count=withdrawn
        )
        return withdrawn

    @entry
    def deregister_executor(self, ctx: ExecutionContext, asn: int, interface: int) -> int:
        """Gracefully leave the marketplace (fleet retire path).

        Owner-only. Clears the unsold slot inventory and the address
        binding, and settles the remaining stake: returned to the owner
        when unconvicted, burned when convicted (forfeit, matching
        ``withdraw_stake``). Conviction records persist — a convicted
        identity that re-registers still cannot publish. After this call
        ``result_ready`` refuses the address (no binding), so retire must
        come after every in-flight publication. Returns the stake settled.
        """
        key = slot_key(asn, interface)
        registered = self.state["executor_address_map"].get(key)
        ctx.require(registered is not None, f"executor {key} is not registered")
        ctx.require(registered == ctx.sender, "caller does not own this executor")
        stake = self.state["stake_map"].get(key, 0)
        convicted = bool(self.state["conviction_map"].get(key))
        if stake > 0:
            if convicted:
                ctx.burn_from_contract(stake)
            else:
                ctx.transfer_from_contract(ctx.sender, stake)
        self._delete("stake_map", key)
        self._delete("execution_slots_map", key)
        self._delete("executor_address_map", key)
        ctx.emit(
            "ExecutorDeregistered",
            asn=asn,
            interface=interface,
            address=ctx.sender,
            stake_settled=stake,
            stake_burned=convicted and stake > 0,
        )
        return stake

    # ----------------------------------------- initiating a measurement

    @entry
    def lookup_slot(
        self,
        ctx: ExecutionContext,
        asn_c: int,
        intf_c: int,
        asn_s: int,
        intf_s: int,
        cores: int,
        memory_mb: int,
        bandwidth_mbps: int,
        duration: float,
        earliest: float,
    ) -> dict:
        """Find the first window both executors can accommodate.

        Returns the window ``[start, start + duration)``, per-side slot
        start times (needed by ``purchase_slot``), and the total price.
        """
        # Slot lists are kept sorted by start, which makes the pair scan
        # prunable: slots that end before the earliest feasible window
        # cannot cover it, and once a best window is known, any slot
        # starting at or after it can only yield start >= best (candidate
        # start is the max of both slot starts), so the sorted scan can
        # stop there. Same result as the exhaustive O(k*m) product — the
        # pruned pairs could never strictly improve on ``best``.
        horizon = earliest + duration
        client_slots = [
            s
            for s in self._fitting_slots(
                ctx, asn_c, intf_c, cores, memory_mb, bandwidth_mbps
            )
            if s["end"] >= horizon
        ]
        server_slots = [
            s
            for s in self._fitting_slots(
                ctx, asn_s, intf_s, cores, memory_mb, bandwidth_mbps
            )
            if s["end"] >= horizon
        ]
        best: dict | None = None
        for cslot in client_slots:
            if best is not None and cslot["start"] >= best["start"]:
                break
            for sslot in server_slots:
                if best is not None and sslot["start"] >= best["start"]:
                    break
                start = max(cslot["start"], sslot["start"], earliest)
                end = start + duration
                if (
                    cslot["start"] <= start
                    and cslot["end"] >= end
                    and sslot["start"] <= start
                    and sslot["end"] >= end
                ):
                    candidate = {
                        "start": start,
                        "end": end,
                        "client_slot_start": cslot["start"],
                        "server_slot_start": sslot["start"],
                        "price_client": cslot["price"],
                        "price_server": sslot["price"],
                        "total_price": cslot["price"] + sslot["price"],
                    }
                    if best is None or candidate["start"] < best["start"]:
                        best = candidate
        ctx.require(best is not None, "no common execution slot available")
        return best

    def _fitting_slots(
        self,
        ctx: ExecutionContext,
        asn: int,
        interface: int,
        cores: int,
        memory_mb: int,
        bandwidth_mbps: int,
    ) -> list[dict]:
        # Works on the raw stored slot dicts: a fleet-scale purchase storm
        # scans thousands of slots per lookup, and materializing an
        # ExecutionSlot per candidate dominated the whole contract-call
        # path. Dataclass instances are built only for slots that leave
        # this file (consumed slots, off-chain views).
        key = slot_key(asn, interface)
        ctx.require(
            key in self.state["executor_address_map"],
            f"executor {key} is not registered",
        )
        return [
            slot
            for slot in self.state["execution_slots_map"].get(key, [])
            if slot["cores"] >= cores
            and slot["memory_mb"] >= memory_mb
            and slot["bandwidth_mbps"] >= bandwidth_mbps
        ]

    @entry
    def purchase_slot(
        self,
        ctx: ExecutionContext,
        asn_c: int,
        intf_c: int,
        asn_s: int,
        intf_s: int,
        client_slot_start: float,
        server_slot_start: float,
        window_start: float,
        window_end: float,
        client_bytecode: bytes,
        client_manifest: dict,
        server_bytecode: bytes,
        server_manifest: dict,
    ) -> dict:
        """Buy the two slots and submit both applications.

        The attached ``value`` must cover both slot prices; the tokens are
        embedded in the two application objects and paid to each executor
        on ``result_ready``. Excess value is refunded. Emits one
        ``ApplicationSubmitted`` event per executor.

        Both applications are statically verified against their manifests
        *before* any slot is consumed or token escrowed: a Debuglet that
        fails verification reverts the whole purchase, so bad bytecode
        never ties up money or marketplace inventory.
        """
        _verify_application_wire(ctx, client_bytecode, "client")
        _verify_application_wire(ctx, server_bytecode, "server")
        return self._do_purchase(
            ctx,
            asn_c, intf_c, asn_s, intf_s,
            client_slot_start, server_slot_start, window_start, window_end,
            client_fields={
                "bytecode": client_bytecode,
                "manifest": client_manifest,
            },
            server_fields={
                "bytecode": server_bytecode,
                "manifest": server_manifest,
            },
        )

    @entry
    def purchase_slot_hashed(
        self,
        ctx: ExecutionContext,
        asn_c: int,
        intf_c: int,
        asn_s: int,
        intf_s: int,
        client_slot_start: float,
        server_slot_start: float,
        window_start: float,
        window_end: float,
        client_code_hash: bytes,
        client_manifest: dict,
        server_code_hash: bytes,
        server_manifest: dict,
    ) -> dict:
        """Like ``purchase_slot`` but with the §V-B cost optimization:
        only the 32-byte hashes of the applications go on-chain; the code
        itself ships out of band (see
        :class:`repro.core.offchain.OffChainCodeStore`) and executors
        verify it against the hash before running it."""
        ctx.require(len(client_code_hash) == 32, "client code hash must be 32 bytes")
        ctx.require(len(server_code_hash) == 32, "server code hash must be 32 bytes")
        return self._do_purchase(
            ctx,
            asn_c, intf_c, asn_s, intf_s,
            client_slot_start, server_slot_start, window_start, window_end,
            client_fields={
                "bytecode_hash": client_code_hash,
                "manifest": client_manifest,
            },
            server_fields={
                "bytecode_hash": server_code_hash,
                "manifest": server_manifest,
            },
        )

    def _do_purchase(
        self,
        ctx: ExecutionContext,
        asn_c: int,
        intf_c: int,
        asn_s: int,
        intf_s: int,
        client_slot_start: float,
        server_slot_start: float,
        window_start: float,
        window_end: float,
        *,
        client_fields: dict,
        server_fields: dict,
    ) -> dict:
        client_slot = self._consume_slot(ctx, asn_c, intf_c, client_slot_start)
        server_slot = self._consume_slot(ctx, asn_s, intf_s, server_slot_start)
        total = client_slot.price + server_slot.price
        ctx.require(
            ctx.value >= total,
            f"attached {ctx.value} tokens do not cover price {total}",
        )
        if ctx.value > total:
            ctx.transfer_from_contract(ctx.sender, ctx.value - total)

        window = {"start": window_start, "end": window_end}
        server_data = {
            "role": "server",
            "asn": asn_s,
            "interface": intf_s,
            "tokens": server_slot.price,
            "window": window,
            "initiator": ctx.sender,
            "peer": "",
        }
        server_data.update(server_fields)
        server_id = ctx.create_object(APPLICATION_KIND, server_data)
        client_data = {
            "role": "client",
            "asn": asn_c,
            "interface": intf_c,
            "tokens": client_slot.price,
            "window": window,
            "initiator": ctx.sender,
            "peer": server_id.hex(),
        }
        client_data.update(client_fields)
        client_id = ctx.create_object(APPLICATION_KIND, client_data)
        server_obj = ctx.objects.get(server_id)
        data = dict(server_obj.data)
        data["peer"] = client_id.hex()
        ctx.update_object(server_id, data)

        key = applications_key(asn_c, intf_c, asn_s, intf_s, window_start, window_end)
        # Rebind rather than extend in place: the undo log records whole
        # old values, so in-place mutation of a journaled list would leak
        # through a rollback.
        existing = self.state["applications_map"].get(key, [])
        self._set(
            "applications_map", key, existing + [client_id.hex(), server_id.hex()]
        )
        ctx.emit(
            "ApplicationSubmitted",
            asn=asn_c,
            interface=intf_c,
            application_id=client_id.hex(),
            role="client",
            window_start=window_start,
        )
        ctx.emit(
            "ApplicationSubmitted",
            asn=asn_s,
            interface=intf_s,
            application_id=server_id.hex(),
            role="server",
            window_start=window_start,
        )
        return {
            "client_application": client_id.hex(),
            "server_application": server_id.hex(),
            "total_price": total,
        }

    def _consume_slot(
        self, ctx: ExecutionContext, asn: int, interface: int, slot_start: float
    ) -> ExecutionSlot:
        key = slot_key(asn, interface)
        slots = self.state["execution_slots_map"].get(key, [])
        for index, slot in enumerate(slots):
            if slot["start"] == slot_start:
                # Rebind a new list sharing the surviving slot dicts: slot
                # dicts are never mutated after being bound into the map,
                # so sharing is safe under the journal invariant — and it
                # skips re-encoding the whole inventory per purchase.
                self._set(
                    "execution_slots_map", key, slots[:index] + slots[index + 1:]
                )
                return ExecutionSlot.from_dict(slot)
        ctx.abort(f"no slot starting at {slot_start} on executor {key}")
        raise AssertionError("unreachable")  # pragma: no cover

    # ----------------------------------------------------------- results

    @entry
    def result_ready(
        self, ctx: ExecutionContext, application_id_hex: str, result: bytes
    ) -> str:
        """Publish a result and collect the embedded payment.

        Only the registered executor for the application's
        ``<AS, interface>`` may call this, and only once per application.
        """
        app_id = ObjectId.from_hex(application_id_hex)
        app = ctx.objects.get(app_id)
        ctx.require(app.kind == APPLICATION_KIND, "object is not an application")
        key = slot_key(app.data["asn"], app.data["interface"])
        executor_address = self.state["executor_address_map"].get(key)
        ctx.require(
            executor_address == ctx.sender,
            "caller is not the executor assigned to this application",
        )
        ctx.require(
            not self.state["conviction_map"].get(key),
            "executor was slashed for misbehavior and may not publish",
        )
        ctx.require(
            application_id_hex not in self.state["results_map"],
            "result already published for this application",
        )
        ctx.require(
            not app.data.get("refunded"),
            "application escrow was refunded after its window expired",
        )
        result_id = ctx.create_object(
            RESULT_KIND,
            {
                "application": application_id_hex,
                "result": result,
                "executor": ctx.sender,
                "published_at": ctx.time,
            },
        )
        ctx.transfer_from_contract(ctx.sender, app.data["tokens"])
        self._set("results_map", application_id_hex, result_id.hex())
        ctx.emit(
            "ResultReady",
            application_id=application_id_hex,
            result_id=result_id.hex(),
            initiator=app.data["initiator"],
        )
        return result_id.hex()

    @entry
    def refund_expired(self, ctx: ExecutionContext, application_id_hex: str) -> int:
        """Reclaim the escrow of an application whose window expired unserved.

        The counterpart of ``result_ready``: exactly one of the two ever
        pays out a given application's tokens. Only the purchasing
        initiator may call it, only after the execution window has ended,
        and only while no result is published — so an executor can still
        collect by publishing in time, and a refunded application can
        never be paid out afterwards (``result_ready`` checks the
        ``refunded`` flag). Returns the refunded token amount.
        """
        app_id = ObjectId.from_hex(application_id_hex)
        app = ctx.objects.get(app_id)
        ctx.require(app.kind == APPLICATION_KIND, "object is not an application")
        ctx.require(
            ctx.sender == app.data["initiator"],
            "caller did not purchase this application",
        )
        ctx.require(
            application_id_hex not in self.state["results_map"],
            "result already published; payment went to the executor",
        )
        ctx.require(not app.data.get("refunded"), "application already refunded")
        ctx.require(
            ctx.time >= app.data["window"]["end"],
            "execution window has not expired yet",
        )
        tokens = app.data["tokens"]
        data = dict(app.data)
        data["refunded"] = True
        ctx.update_object(app_id, data)
        ctx.transfer_from_contract(ctx.sender, tokens)
        ctx.emit(
            "ApplicationRefunded",
            application_id=application_id_hex,
            initiator=ctx.sender,
            tokens=tokens,
        )
        return tokens

    @entry
    def lookup_result(self, ctx: ExecutionContext, application_id_hex: str) -> dict:
        """Fetch a published result by application ID (§IV-C LookupResult)."""
        result_hex = self.state["results_map"].get(application_id_hex)
        ctx.require(result_hex is not None, "no result for this application")
        result_obj = ctx.objects.get(ObjectId.from_hex(result_hex))
        return {
            "result_id": result_hex,
            "result": result_obj.data["result"],
            "executor": result_obj.data["executor"],
            "published_at": result_obj.data["published_at"],
        }

    # ------------------------------------------------------------ views

    def executor_address(self, asn: int, interface: int) -> str | None:
        """Off-chain read of ExecutorAddressMap."""
        return self.state["executor_address_map"].get(slot_key(asn, interface))

    def available_slots(self, asn: int, interface: int) -> list[ExecutionSlot]:
        """Off-chain read of ExecutionSlotsMap."""
        return [
            ExecutionSlot.from_dict(s)
            for s in self.state["execution_slots_map"].get(slot_key(asn, interface), [])
        ]

    def stake_of(self, asn: int, interface: int) -> int:
        """Off-chain read of the slashable stake."""
        return self.state["stake_map"].get(slot_key(asn, interface), 0)


def _verify_application_wire(ctx: ExecutionContext, wire: bytes, label: str) -> None:
    """Statically verify one shipped application; revert when it fails.

    Runs before any slot is consumed, so a rejected Debuglet costs the
    buyer nothing but gas. ``purchase_slot_hashed`` cannot do this — only
    the 32-byte hash is on-chain — so there the executor-side
    re-verification (``Executor.admit``) is the sole static gate.

    Imports are deliberately local and limited to the sandbox layer: the
    contract decodes the wire itself rather than pulling in
    ``repro.core.application``, which would create an import cycle.
    """
    from repro.sandbox.assembler import assemble
    from repro.sandbox.manifest import Manifest
    from repro.sandbox.verifier import verify_module

    try:
        payload = json.loads(wire.decode("utf-8"))
        source = payload["source"]
        manifest = Manifest.from_dict(payload["manifest"])
    except Exception as exc:
        ctx.require(False, f"{label} application wire is malformed: {exc}")
        return
    try:
        module = assemble(source)
    except Exception as exc:
        ctx.require(False, f"{label} bytecode does not assemble: {exc}")
        return
    report = verify_module(module, manifest)
    ctx.require(
        report.ok,
        f"{label} bytecode failed verification: "
        + "; ".join(diag.render() for diag in report.errors),
    )
    # Purchase is the first time most modules are seen; translating here
    # warms the process-wide compile cache so executor admission and every
    # session VM afterwards reuse the threaded code by hash.
    from repro.sandbox.compile import get_compiled

    get_compiled(module)
