"""Smart-contract runtime.

A contract is a Python class with a ``state`` dict and entry functions
registered via the :func:`entry` decorator. Entry functions receive an
:class:`ExecutionContext` that mediates everything with on-chain effects —
object creation, token transfers, event emission — so the ledger can
meter storage, roll back on revert, and keep execution deterministic.

``ctx.abort(reason)`` (or raising :class:`ContractRevert`) undoes every
state change of the call, like Move's ``abort``.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any, Callable

from repro.common.errors import ChainError, ContractRevert
from repro.common.ids import ObjectId, new_object_id

if TYPE_CHECKING:  # pragma: no cover
    from repro.chain.ledger import Ledger
    from repro.chain.objects import ObjectStore


def entry(function: Callable) -> Callable:
    """Mark a contract method as an externally callable entry function."""
    function.__contract_entry__ = True
    return function


class ExecutionContext:
    """Per-call capabilities handed to an entry function."""

    def __init__(
        self,
        *,
        ledger: "Ledger",
        contract: "Contract",
        sender: str,
        value: int,
        time: float,
        tx_digest: bytes,
    ) -> None:
        self.ledger = ledger
        self.contract = contract
        self.sender = sender
        self.value = value  # tokens attached to the call, already escrowed
        self.time = time
        self.tx_digest = tx_digest
        self.stored_bytes = 0
        self.stored_objects = 0
        self.created_objects: list[ObjectId] = []
        self.pending_events: list[tuple[str, dict[str, Any]]] = []
        self._object_counter = 0

    # -------------------------------------------------------------- state

    @property
    def objects(self) -> "ObjectStore":
        return self.ledger.objects

    def new_object_id(self) -> ObjectId:
        self._object_counter += 1
        return new_object_id(self.tx_digest, self._object_counter)

    def create_object(self, kind: str, data: dict, *, owner: str | None = None) -> ObjectId:
        """Create an on-chain object; storage is charged to this tx."""
        object_id = self.new_object_id()
        obj = self.ledger.objects.create(
            object_id, kind, owner or self.sender, data, self.tx_digest
        )
        self.stored_bytes += obj.size_bytes
        self.stored_objects += 1
        self.created_objects.append(object_id)
        return object_id

    def update_object(self, object_id: ObjectId, data: dict) -> None:
        """Rewrite an object; growth is charged, shrinkage is not refunded
        until the object is freed."""
        old_size, new_size = self.ledger.objects.update(object_id, data)
        if new_size > old_size:
            self.stored_bytes += new_size - old_size

    def free_object(self, object_id: ObjectId) -> None:
        """Free an object; the storage rebate is paid to the sender from
        the ledger's storage fund."""
        obj = self.ledger.objects.free(object_id)
        rebate = self.ledger.gas_schedule.rebate_object_overhead
        rebate += obj.size_bytes * self.ledger.gas_schedule.rebate_per_byte
        self.ledger.pay_rebate(self.sender, rebate)

    # ------------------------------------------------------------- tokens

    def transfer_from_contract(self, to_address: str, amount: int) -> None:
        """Pay out of the contract's escrow balance (e.g. to an executor)."""
        self.ledger.contract_pay_out(self.contract.name, to_address, amount)

    def burn_from_contract(self, amount: int) -> None:
        """Destroy tokens held by the contract (slashing, DESIGN.md §11).

        Burned tokens move into the ledger's ``tokens_slashed`` sink — no
        account is credited, so slashing cannot be farmed by a malicious
        auditor."""
        self.ledger.contract_burn(self.contract.name, amount)

    # ------------------------------------------------------------- events

    def emit(self, name: str, **attributes: Any) -> None:
        """Queue an event; delivered only if the call succeeds."""
        self.pending_events.append((name, attributes))

    # -------------------------------------------------------------- abort

    def abort(self, reason: str) -> None:
        raise ContractRevert(reason)

    def require(self, condition: bool, reason: str) -> None:
        if not condition:
            raise ContractRevert(reason)


class Contract:
    """Base class for contracts. Subclasses set ``name`` and ``state``."""

    name: str = ""

    def __init__(self) -> None:
        if not self.name:
            raise ChainError("contract must define a name")
        self.state: dict[str, Any] = {}

    def entry_functions(self) -> dict[str, Callable]:
        # dir()+getattr per dispatch is measurable at fleet scale; the
        # entry set is fixed per instance, so scan once and cache.
        cached = self.__dict__.get("_entry_cache")
        if cached is not None:
            return cached
        functions = {}
        for attr_name in dir(self):
            attr = getattr(self, attr_name)
            if callable(attr) and getattr(attr, "__contract_entry__", False):
                functions[attr_name] = attr
        self._entry_cache = functions
        return functions

    def call(self, ctx: ExecutionContext, function: str, args: tuple) -> Any:
        functions = self.entry_functions()
        if function not in functions:
            raise ContractRevert(f"no entry function {function!r}")
        return functions[function](ctx, *args)

    def snapshot(self) -> dict:
        return copy.deepcopy(self.state)

    def restore(self, snapshot: dict) -> None:
        self.state = snapshot

    # Journal protocol (DESIGN.md §10): a contract that tracks its own
    # undo log — recording (map, key, old value) per mutation instead of
    # deep-copying its whole state around every call — opts in by
    # returning True from :meth:`journal_begin`. The ledger then skips the
    # O(state) snapshot and calls :meth:`journal_rollback` on revert or
    # :meth:`journal_commit` on success. Contracts that mutate nested
    # structures in place must NOT opt in; the snapshot fallback remains
    # the default and the correctness oracle.

    def journal_begin(self) -> bool:
        """Start a per-call undo log; return False to use snapshots."""
        return False

    def journal_rollback(self) -> None:  # pragma: no cover - opt-in only
        raise ChainError(f"contract {self.name!r} has no journal to roll back")

    def journal_commit(self) -> None:  # pragma: no cover - opt-in only
        raise ChainError(f"contract {self.name!r} has no journal to commit")

    def state_payload(self) -> Any:
        """Deterministic, canonically encodable view of the state."""
        return self.state
