"""A compact, verifiable blockchain substrate (Sui-like).

Provides what Debuglet's control plane needs from a blockchain (§IV-C):
signed and replayable transaction history, contract-escrowed payments,
events, sub-second finality, and Table II-calibrated storage pricing.
"""

from repro.chain.contract import Contract, ExecutionContext, entry
from repro.chain.crypto import KeyPair, ed25519_batch_verify, sha256, verify_signature
from repro.chain.events import Event, EventBus
from repro.chain.gas import MIST_PER_SUI, GasCost, GasSchedule, mist_to_sui, sui_to_mist
from repro.chain.ledger import Account, Checkpoint, Ledger, Wallet
from repro.chain.merkle import MerkleProof, MerkleTree, verify_inclusion
from repro.chain.objects import DEFAULT_NUM_SHARDS, ObjectStore, StoredObject, shard_of
from repro.chain.transaction import Transaction, TransactionReceipt

__all__ = [
    "Account",
    "Checkpoint",
    "DEFAULT_NUM_SHARDS",
    "Contract",
    "Event",
    "EventBus",
    "ExecutionContext",
    "GasCost",
    "GasSchedule",
    "KeyPair",
    "Ledger",
    "MerkleProof",
    "MerkleTree",
    "MIST_PER_SUI",
    "ObjectStore",
    "StoredObject",
    "Transaction",
    "TransactionReceipt",
    "Wallet",
    "ed25519_batch_verify",
    "entry",
    "mist_to_sui",
    "sha256",
    "shard_of",
    "sui_to_mist",
    "verify_inclusion",
    "verify_signature",
]
