"""The ledger: accounts, checkpoints, contract execution, verifiability.

A deliberately compact stand-in for the Sui blockchain with the properties
Debuglet's control plane relies on (§IV-C, §V-B):

- **signed, replayable history** — every transaction is Ed25519-signed;
  :meth:`Ledger.verify_chain` re-checks signatures and the checkpoint hash
  chain, and :meth:`Ledger.replay` re-executes the whole history into a
  fresh ledger and compares state digests;
- **escrowed payment** — tokens attached to a call move into the
  contract's escrow and are paid out by contract code, so payment and
  result logging are enforced by code rather than trust;
- **fast finality** — a configurable sub-second finality latency models
  Sui's; receipts carry submitted/finalized times for the
  delay-to-measurement evaluation;
- **storage pricing** — gas follows :class:`~repro.chain.gas.GasSchedule`
  (Table II calibration), with rebates on object free.

Fleet-scale additions (DESIGN.md §11): object state lives in a sharded
store whose folded Merkle root is committed in every checkpoint; rollback
on revert uses per-transaction undo journals instead of O(state) deep
copies; and an optional *block mode* (``block_window``, or an explicit
:meth:`Ledger.begin_block`) seals one checkpoint per window instead of one
per transaction. It is a seal schedule and nothing else: transactions are
verified and executed at submission either way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.chain.contract import Contract, ExecutionContext
from repro.chain.crypto import KeyPair, ed25519_batch_verify
from repro.chain.events import Event, EventBus
from repro.chain.gas import GasCost, GasSchedule
from repro.chain.merkle import MerkleTree
from repro.chain.objects import DEFAULT_NUM_SHARDS, ObjectStore
from repro.chain.transaction import Transaction, TransactionReceipt
from repro.common.errors import (
    ChainError,
    ConfigurationError,
    ContractRevert,
    InsufficientTokens,
    VerificationError,
)
from repro.common.serialize import stable_hash


@dataclass
class Account:
    address: str
    balance: int = 0
    nonce: int = 0
    label: str = ""


@dataclass(frozen=True)
class Checkpoint:
    """One sealed block: Merkle commitments chained to the predecessor.

    ``merkle_root`` commits the block's transactions; ``state_root`` commits
    the post-block object state (folded shard roots). Serial ledgers seal
    one checkpoint per transaction; block mode seals one per window.
    """

    index: int
    previous_hash: bytes
    merkle_root: bytes
    timestamp: float
    tx_digests: tuple[bytes, ...]
    state_root: bytes = b""

    def hash(self) -> bytes:
        return hashlib.sha256(
            self.index.to_bytes(8, "big")
            + self.previous_hash
            + self.merkle_root
            + self.state_root
        ).digest()


_GENESIS_HASH = hashlib.sha256(b"debuglet-genesis").digest()


@dataclass
class _TxJournal:
    """Undo log for the token side of one call: first-touch old values."""

    balances: dict[str, int] = field(default_factory=dict)
    escrows: dict[str, int] = field(default_factory=dict)
    storage_fund: int | None = None
    slashed: int | None = None


class Ledger:
    """A single-authority, deterministic ledger with real verification."""

    def __init__(
        self,
        *,
        gas_schedule: GasSchedule | None = None,
        clock: Callable[[], float] | None = None,
        finality_latency: float = 0.4,
        scheduler: Callable[[float, Callable[[], None]], None] | None = None,
        require_signatures: bool = True,
        num_shards: int = DEFAULT_NUM_SHARDS,
        block_window: float | None = None,
    ) -> None:
        self.gas_schedule = gas_schedule or GasSchedule()
        self._clock = clock or (lambda: float(len(self._receipts)))
        self.finality_latency = finality_latency
        self._scheduler = scheduler
        self.require_signatures = require_signatures
        if block_window is not None:
            if block_window <= 0:
                raise ConfigurationError("block window must be positive")
            if scheduler is None:
                raise ConfigurationError(
                    "block_window needs a scheduler to drive block flushes"
                )
        self.block_window = block_window
        # Chaos / availability hooks (see repro.chaos). ``submit_gate`` may
        # raise :class:`LedgerUnavailable` to reject a submission before it
        # touches any state; ``event_delay`` returns extra seconds of event
        # delivery latency (on top of ``finality_latency``). Both are None
        # in normal operation and are never part of the replayable history:
        # a gated submission simply never happened.
        self.submit_gate: Callable[[Transaction, float], None] | None = None
        self.event_delay: Callable[[float], float] | None = None
        # Observability (repro.obs): wired by the testbed builders. Like
        # the chaos hooks, recording is never part of replayable history.
        self.obs = None

        self.accounts: dict[str, Account] = {}
        self.contracts: dict[str, Contract] = {}
        self.contract_balances: dict[str, int] = {}
        self.objects = ObjectStore(num_shards=num_shards)
        self.events = EventBus()

        self._transactions: list[Transaction] = []
        self._receipts: list[TransactionReceipt] = []
        self.checkpoints: list[Checkpoint] = []
        # Digests of the open block (None: no block open) and its opening time.
        self._pending: list[bytes] | None = None
        self._block_opened_at = 0.0
        self.blocks_sealed = 0
        self._genesis_grants: list[tuple[str, int]] = []
        # Token sinks: computation fees are burned; storage fees fund the
        # rebates paid when objects are freed (Sui's storage-fund model);
        # slashed stakes are burned into their own sink so conservation
        # (balances + escrow + gas + storage fund + slashed == genesis)
        # stays checkable after convictions (DESIGN.md §13).
        self.gas_burned = 0
        self.storage_fund = 0
        self.tokens_slashed = 0
        self._tx_journal: _TxJournal | None = None

    # ------------------------------------------------------------ wiring

    @property
    def now(self) -> float:
        return self._clock()

    def register_contract(self, contract: Contract) -> Contract:
        if contract.name in self.contracts:
            raise ChainError(f"contract {contract.name!r} already registered")
        self.contracts[contract.name] = contract
        self.contract_balances.setdefault(contract.name, 0)
        return contract

    def create_account(
        self, keypair: KeyPair, *, balance: int = 0, label: str = ""
    ) -> Account:
        address = keypair.address
        if address in self.accounts:
            raise ChainError(f"account {address} already exists")
        account = Account(address=address, balance=balance, label=label)
        self.accounts[address] = account
        if balance:
            self._genesis_grants.append((address, balance))
        return account

    def faucet(self, address: str, amount: int) -> None:
        """Out-of-band token grant (recorded for replay)."""
        if amount < 0:
            raise ChainError("faucet amount must be non-negative")
        self._account(address).balance += amount
        self._genesis_grants.append((address, amount))

    def _account(self, address: str) -> Account:
        account = self.accounts.get(address)
        if account is None:
            account = Account(address=address)
            self.accounts[address] = account
        return account

    def balance_of(self, address: str) -> int:
        return self._account(address).balance

    def next_nonce(self, address: str) -> int:
        return self._account(address).nonce

    # --------------------------------------------------- token mutations
    #
    # Every token mutation funnels through these helpers so the per-call
    # undo journal can record the first-touch old value. Outside a call
    # (journal is None) they are plain mutations.

    def _journal_balance(self, address: str) -> Account:
        account = self._account(address)
        journal = self._tx_journal
        if journal is not None and address not in journal.balances:
            journal.balances[address] = account.balance
        return account

    def _journal_escrow(self, contract_name: str) -> None:
        journal = self._tx_journal
        if journal is not None and contract_name not in journal.escrows:
            journal.escrows[contract_name] = self.contract_balances.get(
                contract_name, 0
            )

    def _journal_fund(self) -> None:
        journal = self._tx_journal
        if journal is not None and journal.storage_fund is None:
            journal.storage_fund = self.storage_fund

    def _journal_slashed(self) -> None:
        journal = self._tx_journal
        if journal is not None and journal.slashed is None:
            journal.slashed = self.tokens_slashed

    def _rollback_tx_journal(self) -> None:
        journal = self._tx_journal
        if journal is None:
            raise ChainError("no transaction journal to roll back")
        self._tx_journal = None
        for address, balance in journal.balances.items():
            # Accounts first seen during the failed call roll back to their
            # recorded old balance — zero, for accounts the call created.
            self.accounts[address].balance = balance
        for name, balance in journal.escrows.items():
            self.contract_balances[name] = balance
        if journal.storage_fund is not None:
            self.storage_fund = journal.storage_fund
        if journal.slashed is not None:
            self.tokens_slashed = journal.slashed

    def credit(self, address: str, amount: int) -> None:
        """Credit tokens out of thin air (genesis-style; avoid in contracts)."""
        if amount < 0:
            raise ChainError("credit must be non-negative")
        self._journal_balance(address).balance += amount

    def pay_rebate(self, address: str, amount: int) -> int:
        """Pay a storage rebate from the storage fund.

        Clamped to the fund balance so token conservation always holds;
        returns the amount actually paid.
        """
        if amount < 0:
            raise ChainError("rebate must be non-negative")
        self._journal_fund()
        paid = min(amount, self.storage_fund)
        self.storage_fund -= paid
        self._journal_balance(address).balance += paid
        return paid

    def contract_pay_out(self, contract_name: str, to_address: str, amount: int) -> None:
        """Move tokens from a contract's escrow to an account."""
        if amount < 0:
            raise ContractRevert("negative payout")
        balance = self.contract_balances.get(contract_name, 0)
        if balance < amount:
            raise ContractRevert(
                f"contract escrow {balance} cannot cover payout {amount}"
            )
        self._journal_escrow(contract_name)
        self.contract_balances[contract_name] = balance - amount
        self._journal_balance(to_address).balance += amount

    def contract_burn(self, contract_name: str, amount: int) -> None:
        """Burn tokens out of a contract's escrow (slashing, §13).

        The tokens leave circulation into the ``tokens_slashed`` sink —
        they are destroyed, not paid to the auditor, so a conviction never
        creates an incentive to frame honest executors. Journaled like
        every other token move, so a reverted slash burns nothing.
        """
        if amount < 0:
            raise ContractRevert("negative burn")
        balance = self.contract_balances.get(contract_name, 0)
        if balance < amount:
            raise ContractRevert(
                f"contract escrow {balance} cannot cover burn {amount}"
            )
        self._journal_escrow(contract_name)
        self._journal_slashed()
        self.contract_balances[contract_name] = balance - amount
        self.tokens_slashed += amount

    # --------------------------------------------------------- execution

    def submit(self, tx: Transaction) -> TransactionReceipt:
        """Execute ``tx`` and commit it to the chain.

        Serial mode seals one checkpoint per transaction; in block mode
        (``block_window`` set, or an explicit :meth:`begin_block`) the
        seal — and nothing else — waits for the block flush.

        Authentication errors and malformed calls raise before any state
        is touched; contract-level aborts produce a *reverted* receipt
        with all state rolled back (the computation fee is still charged,
        as on real chains).
        """
        obs = self.obs
        if self.submit_gate is not None:
            try:
                self.submit_gate(tx, self.now)
            except ChainError as exc:
                if obs is not None:
                    obs.metrics.counter(
                        "ledger_tx_total", status="gated", function=tx.function
                    ).inc()
                    obs.tracer.event(
                        "chain.tx_gated", component="chain",
                        function=tx.function, reason=str(exc),
                    )
                raise
        if self.require_signatures:
            tx.verify()
        sender = self._account(tx.sender)
        if tx.nonce != sender.nonce:
            raise ChainError(f"bad nonce {tx.nonce}, expected {sender.nonce}")
        contract = self.contracts.get(tx.contract)
        if contract is None:
            raise ChainError(f"unknown contract {tx.contract!r}")
        if tx.value < 0 or tx.gas_budget < 0:
            raise ChainError("value and gas budget must be non-negative")
        if sender.balance < tx.value + tx.gas_budget:
            raise InsufficientTokens(
                f"balance {sender.balance} cannot cover value {tx.value} "
                f"+ gas budget {tx.gas_budget}"
            )

        sender.nonce += 1
        digest = tx.digest()
        now = self.now

        # Open the undo journals, then escrow the attached value for the
        # duration of the call (journaled like any other token move).
        self._tx_journal = _TxJournal()
        self.objects.begin_journal()
        contract_journaled = contract.journal_begin()
        contract_snapshot = None if contract_journaled else contract.snapshot()

        self._journal_balance(tx.sender)
        self._journal_escrow(tx.contract)
        sender.balance -= tx.value
        self.contract_balances[tx.contract] += tx.value

        ctx = ExecutionContext(
            ledger=self,
            contract=contract,
            sender=tx.sender,
            value=tx.value,
            time=now,
            tx_digest=digest,
        )
        try:
            return_value = contract.call(ctx, tx.function, tx.args)
            gas = self.gas_schedule.price(
                stored_bytes=ctx.stored_bytes, stored_objects=ctx.stored_objects
            )
            if gas.total > tx.gas_budget:
                raise ContractRevert(
                    f"gas {gas.total} exceeds budget {tx.gas_budget}"
                )
            self.objects.commit_journal()
            if contract_journaled:
                contract.journal_commit()
            self._tx_journal = None
            status = "success"
        except ContractRevert as revert:
            self._rollback_call(contract, contract_journaled, contract_snapshot)
            # The attached value returned with the rollback; nonce stays.
            gas = GasCost(
                computation=self.gas_schedule.computation_fee, storage=0, rebate=0
            )
            status = f"reverted: {revert.reason}"
            return_value = None
            ctx.created_objects = []
            ctx.pending_events = []
        except BaseException:
            # Non-revert failures (bugs, chain errors from inside the call)
            # must not leave half-applied state or an open journal behind.
            self._rollback_call(contract, contract_journaled, contract_snapshot)
            raise

        fee = min(gas.total, tx.gas_budget, sender.balance)
        sender.balance -= fee
        computation_part = min(fee, gas.computation)
        self.gas_burned += computation_part
        self.storage_fund += fee - computation_part

        receipt = TransactionReceipt(
            digest=digest,
            status=status,
            gas=gas,
            return_value=return_value,
            created_objects=list(ctx.created_objects),
            events_emitted=len(ctx.pending_events),
            submitted_at=now,
            finalized_at=now + self.finality_latency,
            checkpoint=len(self.checkpoints),
        )
        self._transactions.append(tx)
        self._receipts.append(receipt)
        if self._pending is None and self.block_window is not None:
            self.begin_block()
            self._scheduler(self.block_window, self.flush_block)
        if self._pending is not None:
            self._pending.append(digest)
        else:
            self._seal_checkpoint([digest], receipt.finalized_at)
        if obs is not None:
            outcome = "success" if status == "success" else "reverted"
            obs.metrics.counter(
                "ledger_tx_total", status=outcome, function=tx.function
            ).inc()
            obs.metrics.counter("ledger_gas_fees_total").inc(fee)
            obs.metrics.gauge("ledger_escrow_locked").set(
                sum(self.contract_balances.values())
            )
            obs.tracer.event(
                "chain.tx", component="chain",
                corr=f"tx:{digest.hex()[:12]}",
                function=tx.function, status=outcome, value=tx.value,
                events=len(ctx.pending_events),
            )
        self._publish_events(ctx.pending_events, digest, receipt.finalized_at)
        return receipt

    def _rollback_call(
        self,
        contract: Contract,
        contract_journaled: bool,
        contract_snapshot: dict | None,
    ) -> None:
        """Undo every effect of the current call via the open journals."""
        if contract_journaled:
            contract.journal_rollback()
        else:
            contract.restore(contract_snapshot)
        self.objects.rollback_journal()
        self._rollback_tx_journal()

    # ------------------------------------------------------------ blocks

    def begin_block(self) -> None:
        """Open a block: submissions share one checkpoint until
        :meth:`flush_block` (``block_window`` ledgers do both themselves)."""
        if self._pending is not None:
            raise ChainError("a block is already open")
        self._pending = []
        self._block_opened_at = self.now

    def flush_block(self) -> Checkpoint | None:
        """Seal the open block into one checkpoint; None when none is open."""
        digests = self._pending
        if digests is None:
            return None
        self._pending = None
        checkpoint = self._seal_checkpoint(digests, self.now + self.finality_latency)
        self.blocks_sealed += 1
        obs = self.obs
        if obs is not None:
            obs.metrics.counter("ledger_blocks_total").inc()
            obs.metrics.histogram("ledger_batch_size").observe(len(digests))
            # Deterministic by construction: simulated time from the first
            # submission of the block to its seal (never wall clock), so
            # same-seed runs export identical histograms.
            obs.metrics.histogram("ledger_apply_seconds").observe(
                max(self.now - self._block_opened_at, 0.0)
            )
        return checkpoint

    def _seal_checkpoint(self, digests: list[bytes], timestamp: float) -> Checkpoint:
        previous = self.checkpoints[-1].hash() if self.checkpoints else _GENESIS_HASH
        checkpoint = Checkpoint(
            index=len(self.checkpoints),
            previous_hash=previous,
            merkle_root=MerkleTree(digests).root,
            timestamp=timestamp,
            tx_digests=tuple(digests),
            state_root=self.objects.state_root(),
        )
        self.checkpoints.append(checkpoint)
        return checkpoint

    def _publish_events(
        self, pending: list[tuple[str, dict]], tx_digest: bytes, finalized_at: float
    ) -> None:
        events = [
            Event(
                name=name,
                attributes=tuple(sorted(attributes.items())),
                tx_digest=tx_digest,
                sequence=index,
                emitted_at=finalized_at,
            )
            for index, (name, attributes) in enumerate(pending)
        ]

        def deliver() -> None:
            for event in events:
                self.events.publish(event)

        if self._scheduler is not None and events:
            delay = self.finality_latency
            if self.event_delay is not None:
                delay += max(0.0, self.event_delay(self.now))
            self._scheduler(delay, deliver)
        else:
            deliver()

    # ------------------------------------------------------ verification

    @property
    def transactions(self) -> list[Transaction]:
        return list(self._transactions)

    @property
    def receipts(self) -> list[TransactionReceipt]:
        return list(self._receipts)

    def verify_chain(self) -> None:
        """Check every signature and the checkpoint hash chain.

        Works for serial (one tx per checkpoint) and batched histories
        alike; an open block is flushed first so the chain is complete.
        Raises :class:`VerificationError` on the first inconsistency.
        """
        self.flush_block()
        total = sum(len(cp.tx_digests) for cp in self.checkpoints)
        if total != len(self._transactions):
            raise VerificationError("checkpoint/transaction count mismatch")
        if self.require_signatures:
            for tx in self._transactions:
                tx.verify_address()
            failed = ed25519_batch_verify(
                [
                    (tx.public_key, tx.signing_payload(), tx.signature)
                    for tx in self._transactions
                ]
            )
            if failed:
                raise VerificationError(
                    f"invalid transaction signature at positions {failed}"
                )
        previous = _GENESIS_HASH
        position = 0
        for checkpoint in self.checkpoints:
            if checkpoint.previous_hash != previous:
                raise VerificationError(
                    f"checkpoint {checkpoint.index} breaks the hash chain"
                )
            digests = [
                tx.digest()
                for tx in self._transactions[
                    position : position + len(checkpoint.tx_digests)
                ]
            ]
            if tuple(digests) != checkpoint.tx_digests:
                raise VerificationError(
                    f"checkpoint {checkpoint.index} digests do not match its txs"
                )
            if checkpoint.merkle_root != MerkleTree(digests).root:
                raise VerificationError(
                    f"checkpoint {checkpoint.index} root does not match its txs"
                )
            for digest in digests:
                if self._receipts[position].digest != digest:
                    raise VerificationError("receipt digest mismatch")
                position += 1
            previous = checkpoint.hash()

    def state_digest(self) -> bytes:
        """A deterministic hash of balances, objects, and contract states."""
        payload = {
            "balances": {
                address: account.balance
                for address, account in sorted(self.accounts.items())
            },
            "nonces": {
                address: account.nonce
                for address, account in sorted(self.accounts.items())
            },
            "escrow": dict(sorted(self.contract_balances.items())),
            "gas_burned": self.gas_burned,
            "storage_fund": self.storage_fund,
            "slashed": self.tokens_slashed,
            "objects": self.objects.state_payload(),
            "contracts": {
                name: contract.state_payload()
                for name, contract in sorted(self.contracts.items())
            },
        }
        return stable_hash(payload)

    def replay(self, contract_factories: dict[str, Callable[[], Contract]]) -> "Ledger":
        """Re-execute history into a fresh ledger; verify state equality.

        Third-party verification (§IV-C): anyone holding the transaction
        log can rebuild the state and confirm the published results were
        produced by the recorded, signed transactions. Replay runs in
        serial mode even for batched histories: the state digest commits
        final state, not checkpoint grouping, so equality holds regardless
        of how the original run batched its blocks.
        """
        times = iter([receipt.submitted_at for receipt in self._receipts])
        replica = Ledger(
            gas_schedule=self.gas_schedule,
            clock=lambda: next(times),
            finality_latency=self.finality_latency,
            require_signatures=self.require_signatures,
            num_shards=self.objects.num_shards,
        )
        for name in self.contracts:
            factory = contract_factories.get(name)
            if factory is None:
                raise VerificationError(f"no factory to replay contract {name!r}")
            replica.register_contract(factory())
        for address, amount in self._genesis_grants:
            replica._account(address).balance += amount
            replica._genesis_grants.append((address, amount))
        for tx in self._transactions:
            replica.submit(tx)
        if replica.state_digest() != self.state_digest():
            raise VerificationError("replayed state digest differs")
        return replica


class Wallet:
    """Convenience: build, sign, and submit transactions for one key."""

    DEFAULT_GAS_BUDGET = 1_000_000_000  # 1 SUI

    def __init__(self, ledger: Ledger, keypair: KeyPair) -> None:
        self.ledger = ledger
        self.keypair = keypair

    @property
    def address(self) -> str:
        return self.keypair.address

    @property
    def balance(self) -> int:
        return self.ledger.balance_of(self.address)

    def call(
        self,
        contract: str,
        function: str,
        *args: Any,
        value: int = 0,
        gas_budget: int | None = None,
    ) -> TransactionReceipt:
        tx = Transaction(
            sender=self.address,
            contract=contract,
            function=function,
            args=tuple(args),
            nonce=self.ledger.next_nonce(self.address),
            gas_budget=self.DEFAULT_GAS_BUDGET if gas_budget is None else gas_budget,
            value=value,
        ).signed_by(self.keypair)
        return self.ledger.submit(tx)

    def must_call(self, contract: str, function: str, *args: Any, **kwargs: Any):
        """Like :meth:`call` but raises on revert; returns the receipt."""
        receipt = self.call(contract, function, *args, **kwargs)
        if not receipt.success:
            raise ChainError(f"{contract}.{function} failed: {receipt.status}")
        return receipt
