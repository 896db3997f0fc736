"""An object's data is canonically encoded once per write.

``ObjectStore.create`` / ``update`` encode the data for its size; the
object's Merkle leaf is the encoding of ``[id, kind, owner, data,
freed]``, and a list encodes as a header followed by its items'
encodings, so the leaf splices in the encoding the write already made
instead of encoding the data a second time. What the leaves and
``state_root`` commit to is byte-identical to encoding the whole list.
"""

import sys

from repro.chain import objects
from repro.chain.merkle import hash_leaf, merkle_root_from_hashes
from repro.chain.objects import ObjectStore
from repro.common import serialize
from repro.common.ids import ObjectId
from repro.common.serialize import canonical_encode, canonical_encode_spliced
from repro.workloads import loadgen


def _leaf(obj) -> bytes:
    """The leaf as it was computed before the encoding was shared."""
    return hash_leaf(canonical_encode(
        [obj.object_id.hex(), obj.kind, obj.owner, obj.data, obj.freed]
    ))


def test_spliced_list_encoding_is_the_list_encoding():
    items = ["id", "kind", "", {"a": [1, 2.5, b"x", None]}, True]
    for index, item in enumerate(items):
        assert canonical_encode_spliced(
            items, index, canonical_encode(item)
        ) == canonical_encode(items)


def test_a_200_session_window_encodes_each_written_data_once(monkeypatch):
    fleet = loadgen.build(loadgen.LoadgenConfig(sessions=200, seed=3))
    assert fleet.config.ledger_mode == "batched"
    original = serialize.canonical_encode
    calls = {"all": 0, "store": 0}
    writes = []

    def counting(value):
        calls["all"] += 1
        return original(value)

    def counting_in_store(value):
        calls["store"] += 1
        return counting(value)

    for module in list(sys.modules.values()):
        if getattr(module, "canonical_encode", None) is original:
            monkeypatch.setattr(module, "canonical_encode", counting)
    monkeypatch.setattr(objects, "canonical_encode", counting_in_store)
    store = fleet.ledger.objects
    create, update = store.create, store.update

    def counting_create(object_id, kind, owner, data, created_tx):
        writes.append(object_id)
        return create(object_id, kind, owner, data, created_tx)

    def counting_update(object_id, data):
        writes.append(object_id)
        return update(object_id, data)

    monkeypatch.setattr(store, "create", counting_create)
    monkeypatch.setattr(store, "update", counting_update)
    report = loadgen.run(fleet)
    monkeypatch.undo()
    assert report["deterministic"]["certified"] == 200

    # The store encodes each write's data once, for its size; the 800
    # objects' leaves encode none of it again.
    assert len(store) == 800
    assert calls["store"] == len(writes)
    # The window's total: 2 801 at the commit before this change, less
    # the 800 leaf re-encodings, plus the client's arguments bound into
    # its 200 certificates' code hashes.
    assert calls["all"] == 2_801 - 800 + 200

    # and the commitments are unchanged
    for shard in store._shards:
        for obj in shard.values():
            assert obj.leaf_hash == _leaf(obj)
    fresh = ObjectStore(store.num_shards)
    for shard in store._shards:
        for obj in shard.values():
            fresh.create(obj.object_id, obj.kind, obj.owner, obj.data, obj.created_tx)
    assert fresh.state_root() == store.state_root()


def test_rollback_and_free_reencode_what_they_must():
    store = ObjectStore(2)
    oid = ObjectId(bytes(range(16)))
    obj = store.create(oid, "k", "owner", {"v": 1}, b"tx")
    store.state_root()
    store.begin_journal()
    store.update(oid, {"v": 2})
    store.rollback_journal()
    assert obj.data == {"v": 1}
    root = store.state_root()
    assert obj.leaf_hash == _leaf(obj)
    store.free(oid)
    assert store.state_root() != root
    assert obj.leaf_hash == _leaf(obj)
    assert merkle_root_from_hashes(store.shard_roots()) == store.state_root()
