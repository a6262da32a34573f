"""The index write path does each piece of work once per unit written.

Count-based, like ``test_priced_once``: calls of the walk, the varint
encoder, the canonical serialiser and the size formula against the
documents, entries and items that went through the packer — nothing
here depends on wall-clock time.
"""

import pytest

from tests.warehouse.test_priced_once import _corpus

from repro.cloud import dynamodb
from repro.indexing import base, checksums, mapper
from repro.mutations import compactor
from repro.warehouse import Warehouse, loader

DOCUMENTS = 12


@pytest.fixture
def calls(monkeypatch):
    """Call counts by name, plus what the packer and the ledger hash
    were handed: ``id_entries``/``items`` packed, ``hashed`` entries."""
    counts = {"walks": 0, "encodes": 0, "canonical": 0, "sized": 0,
              "id_entries": 0, "items": 0, "hashed": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(base, "collect_occurrences",
                        counting("walks", base.collect_occurrences))
    monkeypatch.setattr(mapper, "encode_ids",
                        counting("encodes", mapper.encode_ids))
    canonical = counting("canonical", checksums.canonical_item_bytes)
    monkeypatch.setattr(checksums, "canonical_item_bytes", canonical)
    monkeypatch.setattr(mapper, "canonical_item_bytes", canonical)
    sized = counting("sized", dynamodb.attribute_size)
    monkeypatch.setattr(dynamodb, "attribute_size", sized)
    monkeypatch.setattr(mapper, "attribute_size", sized)

    pack = mapper.DynamoIndexStore._pack_items

    def packing(self, entries):
        items = pack(self, entries)
        counts["id_entries"] += sum(1 for entry in entries if entry.ids)
        counts["items"] += len(items)
        return items

    monkeypatch.setattr(mapper.DynamoIndexStore, "_pack_items", packing)
    hash_entries = mapper.batch_entries_hash

    def hashing(extracted):
        counts["hashed"] += sum(map(len, extracted.values()))
        return hash_entries(extracted)

    for module in (mapper, loader, compactor):
        monkeypatch.setattr(module, "batch_entries_hash", hashing)
    return counts


def test_build_walks_encodes_and_sizes_once(calls):
    warehouse = Warehouse()
    warehouse.upload_corpus(_corpus(documents=DOCUMENTS))
    index = warehouse.build_index("2LUPI", config={"loaders": 2,
                                                   "batch_size": 4})
    assert index.report.documents == DOCUMENTS
    assert calls["walks"] == DOCUMENTS  # one walk feeds both tables
    assert calls["id_entries"] == index.report.entries // 2 > 0
    assert calls["encodes"] == calls["id_entries"]
    db = warehouse.cloud.dynamodb
    stored = [item for name in db.table_names()
              for item in db.table(name).all_items()]
    assert len(stored) == calls["items"] == index.report.items
    # Every attribute of every item was sized by the packer, and the
    # put path, the write stats and the storage report read that size.
    assert calls["sized"] == sum(len(item.attributes) for item in stored)
    assert db.raw_bytes() == sum(item.size_bytes for item in stored)
    assert calls["sized"] == sum(len(item.attributes) for item in stored)
    assert calls["canonical"] == calls["hashed"] == 0  # uuid mode


def test_checkpointed_ingest_and_compaction_encode_once(calls):
    warehouse = Warehouse()
    warehouse.upload_corpus(_corpus(documents=DOCUMENTS))
    _, record = warehouse.build_index_checkpointed(
        "2LUPI", config={"loaders": 2, "batch_size": 4})
    live = warehouse.live_index(record.name)
    warehouse.add_documents(live, _corpus(seed=7000, documents=4,
                                          prefix="new-"),
                            config={"loaders": 2})
    compaction = warehouse.compact_index(live)
    assert compaction.entries_written > 0
    assert calls["walks"] == DOCUMENTS + 4
    # Build batches, the delta and the compaction's folds: every entry
    # (LUP and LUI alike) is packed and then hashed for the ledger; an
    # ID list is encoded when it is packed and the hash reuses that.
    assert calls["hashed"] == 2 * calls["id_entries"] > 0
    assert calls["encodes"] == calls["id_entries"]
    # One canonical form per content-addressed item (its CRC and its
    # range key share it), one per entry in a ledger hash.
    assert calls["canonical"] == calls["items"] + calls["hashed"]
