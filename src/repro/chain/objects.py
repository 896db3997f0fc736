"""The on-chain object store, sharded by object-id hash.

Sui-style: contracts create *objects* (applications, results, slot lists)
identified by :class:`~repro.common.ids.ObjectId`. Storage is priced by
encoded size; freeing an object earns the storage rebate (Table II).

Fleet-scale layout (DESIGN.md §10): objects are partitioned into
``num_shards`` shards by a stable hash of their id, each shard keeps a
cached Merkle root over per-object leaf hashes, and the ledger-wide
:meth:`ObjectStore.state_root` folds the shard roots together. Mutations
mark only their shard dirty, so sealing a checkpoint re-hashes the touched
shards instead of scanning one flat map — and a batched block that touches
several shards pays each rebuild once at seal time, not once per
transaction.

Rollback is journal-based: inside :meth:`begin_journal` /
:meth:`rollback_journal`, every mutation appends an undo record, so a
reverted contract call restores exactly the objects it touched — replacing
the O(state) deep-copy snapshot the serial ledger used to take per
transaction. :meth:`snapshot` / :meth:`restore` survive as the
compatibility fallback (and as the oracle the journal is property-tested
against).
"""

from __future__ import annotations

import copy
import hashlib
from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

from repro.common.errors import ChainError
from repro.common.ids import ObjectId
from repro.common.serialize import canonical_encode, canonical_encode_spliced
from repro.chain.merkle import hash_leaf, merkle_root_from_hashes

DEFAULT_NUM_SHARDS = 16

#: Root of a shard with no objects (domain-separated constant).
EMPTY_SHARD_ROOT = hashlib.sha256(b"debuglet-empty-shard").digest()


def shard_of(object_id: ObjectId, num_shards: int) -> int:
    """The stable shard index of ``object_id`` (id-hash partitioning)."""
    return int.from_bytes(object_id.value[:8], "big") % num_shards


#: Sort key for Merkle-leaf ordering — compares the raw bytes directly
#: (same order as ObjectId's dataclass ordering, without the per-compare
#: dataclass `__lt__` overhead).
_id_key = attrgetter("value")


@dataclass
class StoredObject:
    """One object. ``data`` must be canonically encodable."""

    object_id: ObjectId
    kind: str
    owner: str
    data: dict[str, Any]
    created_tx: bytes
    size_bytes: int
    freed: bool = False
    # Cached leaf hash for the shard Merkle tree; invalidated on mutation.
    leaf_hash: bytes | None = field(default=None, repr=False, compare=False)
    # ``data``'s encoding, made for ``size_bytes`` by the store's create or
    # update and spent by the next leaf hash, so the data of an object is
    # encoded once per write, not once for its size and again for its leaf.
    data_encoding: bytes | None = field(default=None, repr=False, compare=False)

    def compute_leaf_hash(self) -> bytes:
        if self.leaf_hash is None:
            encoded, self.data_encoding = self.data_encoding, None
            if encoded is None:
                encoded = canonical_encode(self.data)
            self.leaf_hash = hash_leaf(
                canonical_encode_spliced(
                    [self.object_id.hex(), self.kind, self.owner, None, self.freed],
                    3, encoded,
                )
            )
        return self.leaf_hash


class ObjectStore:
    """All live and freed objects, sharded, with journaled rollback."""

    def __init__(self, num_shards: int = DEFAULT_NUM_SHARDS) -> None:
        if num_shards < 1:
            raise ChainError("object store needs at least one shard")
        self.num_shards = num_shards
        self._shards: list[dict[ObjectId, StoredObject]] = [
            {} for _ in range(num_shards)
        ]
        self._roots: list[bytes] = [EMPTY_SHARD_ROOT] * num_shards
        self._dirty: set[int] = set()
        # Cached sorted id list per shard (None = rebuild on next use):
        # shard membership only grows via create, so the sort that orders
        # Merkle leaves is maintained by insort instead of re-sorted from
        # scratch on every checkpoint seal.
        self._sorted_ids: list[list[ObjectId] | None] = [None] * num_shards
        self._live = 0
        self._journal: list[tuple] | None = None

    # ------------------------------------------------------------ shards

    def shard_of(self, object_id: ObjectId) -> int:
        return shard_of(object_id, self.num_shards)

    def _shard(self, object_id: ObjectId) -> dict[ObjectId, StoredObject]:
        return self._shards[shard_of(object_id, self.num_shards)]

    def _touch(self, object_id: ObjectId) -> None:
        self._dirty.add(shard_of(object_id, self.num_shards))

    def _shard_ids(self, index: int) -> list[ObjectId]:
        ids = self._sorted_ids[index]
        if ids is None:
            ids = sorted(self._shards[index], key=_id_key)
            self._sorted_ids[index] = ids
        return ids

    def shard_roots(self) -> list[bytes]:
        """Per-shard Merkle roots, rebuilding only the dirty shards."""
        for index in self._dirty:
            shard = self._shards[index]
            if not shard:
                self._roots[index] = EMPTY_SHARD_ROOT
                continue
            leaves = [
                shard[object_id].compute_leaf_hash()
                for object_id in self._shard_ids(index)
            ]
            self._roots[index] = merkle_root_from_hashes(leaves)
        self._dirty.clear()
        return list(self._roots)

    def state_root(self) -> bytes:
        """The ledger-wide object-state commitment: folded shard roots."""
        return merkle_root_from_hashes(self.shard_roots())

    # ----------------------------------------------------------- journal

    def begin_journal(self) -> None:
        """Start recording undo entries for the next mutations."""
        if self._journal is not None:
            raise ChainError("object journal already open")
        self._journal = []

    def commit_journal(self) -> None:
        self._journal = None

    def rollback_journal(self) -> None:
        """Undo every mutation since :meth:`begin_journal`, in reverse."""
        journal = self._journal
        if journal is None:
            raise ChainError("no object journal to roll back")
        self._journal = None
        for entry in reversed(journal):
            op = entry[0]
            if op == "create":
                _, object_id = entry
                del self._shard(object_id)[object_id]
                # Rolled-back creates shrink shard membership — the rare
                # case; drop the sorted-id cache rather than splice it.
                self._sorted_ids[shard_of(object_id, self.num_shards)] = None
                self._live -= 1
            elif op == "update":
                _, object_id, old_data, old_size = entry
                obj = self._shard(object_id)[object_id]
                obj.data = old_data
                obj.size_bytes = old_size
                obj.leaf_hash = obj.data_encoding = None
            else:  # "free"
                _, object_id = entry
                obj = self._shard(object_id)[object_id]
                obj.freed = False
                obj.leaf_hash = None
                self._live += 1
            self._touch(object_id)

    # --------------------------------------------------------- mutations

    def create(
        self, object_id: ObjectId, kind: str, owner: str, data: dict, created_tx: bytes
    ) -> StoredObject:
        shard = self._shard(object_id)
        if object_id in shard:
            raise ChainError(f"object {object_id} already exists")
        encoded = canonical_encode(data)
        obj = StoredObject(
            object_id, kind, owner, data, created_tx, len(encoded),
            data_encoding=encoded,
        )
        shard[object_id] = obj
        ids = self._sorted_ids[shard_of(object_id, self.num_shards)]
        if ids is not None:
            insort(ids, object_id, key=_id_key)
        self._live += 1
        self._touch(object_id)
        if self._journal is not None:
            self._journal.append(("create", object_id))
        return obj

    def get(self, object_id: ObjectId) -> StoredObject:
        obj = self._shard(object_id).get(object_id)
        if obj is None:
            raise ChainError(f"no such object {object_id}")
        if obj.freed:
            raise ChainError(f"object {object_id} has been freed")
        return obj

    def exists(self, object_id: ObjectId) -> bool:
        obj = self._shard(object_id).get(object_id)
        return obj is not None and not obj.freed

    def update(self, object_id: ObjectId, data: dict) -> tuple[int, int]:
        """Replace an object's data; returns (old_size, new_size)."""
        obj = self.get(object_id)
        old_size = obj.size_bytes
        if self._journal is not None:
            self._journal.append(("update", object_id, obj.data, old_size))
        obj.data = data
        obj.data_encoding = canonical_encode(data)
        obj.size_bytes = len(obj.data_encoding)
        obj.leaf_hash = None
        self._touch(object_id)
        return old_size, obj.size_bytes

    def free(self, object_id: ObjectId) -> StoredObject:
        obj = self.get(object_id)
        if self._journal is not None:
            self._journal.append(("free", object_id))
        obj.freed = True
        obj.leaf_hash = None
        self._live -= 1
        self._touch(object_id)
        return obj

    # ------------------------------------------------------------- reads

    def by_kind(self, kind: str) -> list[StoredObject]:
        return [
            obj
            for shard in self._shards
            for obj in shard.values()
            if obj.kind == kind and not obj.freed
        ]

    def __len__(self) -> int:
        return self._live

    # -------------------------------------------- snapshots (fallback)

    def snapshot(self) -> list[dict]:
        """Deep snapshot of every shard — the journal-free fallback."""
        return copy.deepcopy(self._shards)

    def restore(self, snapshot: list[dict]) -> None:
        self._shards = snapshot
        self._live = sum(
            1 for shard in self._shards for obj in shard.values() if not obj.freed
        )
        self._dirty = set(range(self.num_shards))
        self._sorted_ids = [None] * self.num_shards

    def state_payload(self) -> list:
        """Deterministic encoding of live objects for state digests."""
        payload = []
        all_ids = sorted(
            object_id for shard in self._shards for object_id in shard
        )
        for object_id in all_ids:
            obj = self._shard(object_id)[object_id]
            payload.append(
                [
                    object_id.hex(),
                    obj.kind,
                    obj.owner,
                    obj.data,
                    obj.freed,
                ]
            )
        return payload
