"""Merkle trees over transaction digests.

Each checkpoint (block) commits to its transactions with a Merkle root;
inclusion proofs let light verifiers confirm that a particular result
transaction is part of the canonical history without replaying the chain.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.common.errors import VerificationError

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _hash_leaf(data: bytes) -> bytes:
    return hashlib.sha256(_LEAF_PREFIX + data).digest()


def _hash_node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


@dataclass(frozen=True)
class MerkleProof:
    """An audit path: sibling hashes from leaf to root."""

    leaf_index: int
    siblings: tuple[tuple[str, bytes], ...]  # ("L"|"R", hash)


class MerkleTree:
    """A static Merkle tree over a list of leaves.

    Odd nodes are promoted (Bitcoin-style duplication is avoided to keep
    proofs unambiguous).
    """

    def __init__(self, leaves: list[bytes]) -> None:
        if not leaves:
            raise VerificationError("Merkle tree needs at least one leaf")
        self.leaves = [bytes(leaf) for leaf in leaves]
        self._levels: list[list[bytes]] = [[_hash_leaf(leaf) for leaf in self.leaves]]
        while len(self._levels[-1]) > 1:
            level = self._levels[-1]
            parent: list[bytes] = []
            for i in range(0, len(level) - 1, 2):
                parent.append(_hash_node(level[i], level[i + 1]))
            if len(level) % 2 == 1:
                parent.append(level[-1])  # promote the odd node
            self._levels.append(parent)

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    def proof(self, index: int) -> MerkleProof:
        if not 0 <= index < len(self.leaves):
            raise VerificationError(f"leaf index {index} out of range")
        siblings: list[tuple[str, bytes]] = []
        position = index
        for level in self._levels[:-1]:
            if position % 2 == 0:
                if position + 1 < len(level):
                    siblings.append(("R", level[position + 1]))
                # else: promoted node, no sibling at this level
            else:
                siblings.append(("L", level[position - 1]))
            position //= 2
        return MerkleProof(index, tuple(siblings))


def merkle_root_from_hashes(leaf_hashes: list[bytes]) -> bytes:
    """The Merkle root over already-hashed leaves, without level storage.

    Used on hot paths (per-shard state roots) where only the root is
    needed: same promotion rule as :class:`MerkleTree` applied to inputs
    that are already leaf hashes, skipping the per-level list retention
    that audit paths require.
    """
    if not leaf_hashes:
        raise VerificationError("Merkle root needs at least one leaf hash")
    level = leaf_hashes
    while len(level) > 1:
        parent = [
            _hash_node(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2 == 1:
            parent.append(level[-1])
        level = parent
    return level[0]


def hash_leaf(data: bytes) -> bytes:
    """The domain-separated leaf hash, for callers that pre-hash leaves."""
    return _hash_leaf(data)


def verify_inclusion(leaf: bytes, proof: MerkleProof, root: bytes) -> bool:
    """Check that ``leaf`` is included under ``root`` via ``proof``."""
    current = _hash_leaf(leaf)
    for side, sibling in proof.siblings:
        if side == "R":
            current = _hash_node(current, sibling)
        elif side == "L":
            current = _hash_node(sibling, current)
        else:
            return False
    return current == root
