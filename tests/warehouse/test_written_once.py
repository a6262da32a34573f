"""The index write path does each piece of work once per unit written.

Count-based, like ``test_priced_once``: calls of the walk, the varint
codec, the canonical serialiser, the piece builder and the size formula
against the documents, entries, postings and items that went through
the packer — nothing here depends on wall-clock time.
"""

import pytest

from tests.warehouse.test_priced_once import _corpus

from repro.cloud import dynamodb
from repro.consistency import build
from repro.indexing import base, checksums, entries, mapper
from repro.mutations import compactor
from repro.warehouse import Warehouse, loader

DOCUMENTS = 12


@pytest.fixture
def calls(monkeypatch):
    """Call counts by name, plus what the packer and the ledger hash
    were handed: ``packed`` postings (``id_postings`` of them holding
    an ID blob, ``converted`` of them still entry objects on arrival)
    into ``items``, ``hashed`` postings."""
    counts = {"walks": 0, "encodes": 0, "decodes": 0, "canonical": 0,
              "pieces": 0, "joined": 0, "sized": 0, "entries_built": 0,
              "packed": 0, "id_postings": 0, "converted": 0, "items": 0,
              "hashed": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(base, "collect_occurrences",
                        counting("walks", base.collect_occurrences))
    # The projection encodes from the walk's rows; the packer only to
    # re-split an oversized posting (never, at this size).
    monkeypatch.setattr(base, "encode_id_rows",
                        counting("encodes", base.encode_id_rows))
    monkeypatch.setattr(mapper, "encode_ids",
                        counting("encodes", mapper.encode_ids))
    monkeypatch.setattr(mapper, "decode_ids",
                        counting("decodes", mapper.decode_ids))
    canonical = counting("canonical", checksums.canonical_item_bytes)
    monkeypatch.setattr(checksums, "canonical_item_bytes", canonical)
    monkeypatch.setattr(build, "canonical_item_bytes", canonical)
    # The pieces postings are born with (``canonical_item_bytes`` builds
    # its own through the ``checksums`` name, which stays unpatched).
    monkeypatch.setattr(entries, "attribute_piece",
                        counting("pieces", entries.attribute_piece))
    monkeypatch.setattr(mapper, "_canonical",
                        counting("joined", mapper._canonical))
    sized = counting("sized", dynamodb.attribute_size)
    monkeypatch.setattr(dynamodb, "attribute_size", sized)
    monkeypatch.setattr(mapper, "attribute_size", sized)
    monkeypatch.setattr(entries, "attribute_size", sized)
    monkeypatch.setattr(
        entries.IndexEntry, "__post_init__",
        counting("entries_built", entries.IndexEntry.__post_init__))

    convert = mapper.stored_postings

    def converting(batch, canonical=True):
        counts["converted"] += sum(
            1 for entry in batch if not isinstance(entry, entries.Posting))
        return convert(batch, canonical)

    monkeypatch.setattr(mapper, "stored_postings", converting)
    pack = mapper.DynamoIndexStore._pack_items

    def packing(self, batch):
        items = pack(self, batch)
        counts["packed"] += len(batch)
        counts["id_postings"] += sum(
            1 for posting in batch
            if any(isinstance(value, bytes)
                   for value in getattr(posting, "values", ())))
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


def test_build_walks_encodes_and_sizes_once(calls, monkeypatch):
    warehouse = Warehouse()
    warehouse.upload_corpus(_corpus(documents=DOCUMENTS))
    index = warehouse.build_index("2LUPI", config={"loaders": 2,
                                                   "batch_size": 4})
    assert index.report.documents == DOCUMENTS
    assert calls["walks"] == DOCUMENTS  # one walk feeds both tables
    # The projection of that walk is what the packer packs: no entry
    # object on the way, nothing left for the packer to convert, and
    # the codec ran at most once per ID posting (once per distinct ID
    # list of a document).
    assert calls["entries_built"] == calls["converted"] == 0
    assert calls["packed"] == index.report.entries
    assert calls["id_postings"] == index.report.entries // 2 > 0
    assert 0 < calls["encodes"] <= calls["id_postings"]
    db = warehouse.cloud.dynamodb
    stored = [item for name in db.table_names()
              for item in db.table(name).all_items()]
    assert len(stored) == calls["items"] == index.report.items
    # Every attribute was sized once, by its extraction, with no call
    # of the size formula; the put path, the write stats and the
    # storage report read that size, and it is the formula's exactly.
    assert calls["sized"] == 0
    assert db.raw_bytes() == sum(item.size_bytes for item in stored)
    monkeypatch.undo()
    assert [item.size_bytes for item in stored] == [
        dynamodb.DynamoItem(item.hash_key, item.range_key,
                            item.attributes).size_bytes
        for item in stored]
    assert calls["canonical"] == calls["hashed"] == 0  # uuid mode
    assert calls["pieces"] == 0  # ... which builds no canonical piece


def test_checkpointed_ingest_and_compaction_encode_once(calls):
    warehouse = Warehouse()
    warehouse.upload_corpus(_corpus(documents=DOCUMENTS))
    built, record = warehouse.build_index_checkpointed(
        "2LUPI", config={"loaders": 2, "batch_size": 4})
    live = warehouse.live_index(record.name)
    delta = warehouse.add_documents(live, _corpus(seed=7000, documents=4,
                                                  prefix="new-"),
                                    config={"loaders": 2})
    assert calls["walks"] == DOCUMENTS + 4
    assert calls["id_postings"] == (built.report.entries
                                    + delta.entries) // 2 > 0
    assert 0 < calls["encodes"] <= calls["id_postings"]
    before = dict(calls)
    compaction = warehouse.compact_index(live)
    assert compaction.entries_written > 0
    # The fold never leaves stored form: every ID list it carries is
    # the one blob it scanned, so the codec ran for the build batches'
    # and the delta's ID postings only; and from the first walk to the
    # last put no entry object was built and none reached the packer.
    assert calls["encodes"] == before["encodes"]
    assert calls["decodes"] == 0
    assert calls["entries_built"] == calls["converted"] == 0
    # One piece per posting written (build batches, delta and fold
    # alike; this chain masks nothing, so every posting the fold scans
    # it also writes), from one encode per value: the scanned item's
    # canonical form, the new item's, the ledger's form and the
    # packer's budget check all read it.
    assert calls["packed"] - before["packed"] == compaction.entries_written
    assert calls["pieces"] == calls["packed"] == calls["hashed"]
    # Canonical forms are joined from those pieces: one per scanned
    # item (the fold's checksum verification) and one per item packed.
    # No digest serialises an item again: the build's commit, the
    # delta's flip and the compaction's commit each take the form the
    # packer joined for the very item they scan.
    assert (calls["joined"] - before["joined"]
            == compaction.scanned_items + compaction.items)
    assert calls["joined"] - compaction.scanned_items == calls["items"]
    assert before["canonical"] == 0
    assert calls["canonical"] - before["canonical"] == 0


def test_one_damaged_item_costs_one_serialisation(calls, monkeypatch):
    warehouse = Warehouse()
    warehouse.upload_corpus(_corpus(documents=DOCUMENTS))
    _, record = warehouse.build_index_checkpointed(
        "2LUPI", config={"loaders": 2, "batch_size": 4})
    live = warehouse.live_index(record.name)
    warehouse.add_documents(live, _corpus(seed=7000, documents=4,
                                          prefix="new-"),
                            config={"loaders": 2})
    db = warehouse.cloud.dynamodb
    commit = build.BuildCoordinator.commit

    def damage_then_commit(coordinator):
        # After the fold's puts, before the commit's scan: the stored
        # object is replaced, so its recorded form no longer applies.
        table = coordinator.plan.table_names["lui"]
        item = db.table(table).all_items()[0]
        uri = max(item.attributes)  # "#crc" sorts before every URI
        assert db.corrupt_attribute(table, item.hash_key, item.range_key,
                                    uri)
        committed = yield from commit(coordinator)
        return committed

    monkeypatch.setattr(build.BuildCoordinator, "commit", damage_then_commit)
    assert warehouse.compact_index(live).committed
    assert calls["canonical"] == 1
