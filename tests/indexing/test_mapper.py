"""Unit tests for the physical index stores (DynamoDB / SimpleDB
mappings, §6)."""

import pytest

from repro.cloud import CloudProvider
from repro.cloud.dynamodb import MAX_ITEM_BYTES
from repro.errors import IndexingError
from repro.indexing.entries import IndexEntry
from repro.indexing.mapper import (DynamoIndexStore, SimpleDBIndexStore,
                                   _chunk_ids_text)
from repro.xmldb.ids import NodeID


@pytest.fixture
def dynamo_store(cloud):
    store = DynamoIndexStore(cloud.dynamodb, seed=1)
    store.create_table("idx")
    return store


@pytest.fixture
def simpledb_store(cloud):
    store = SimpleDBIndexStore(cloud.simpledb, seed=1)
    store.create_table("idx")
    return store


def _presence(key, uri):
    return IndexEntry(key=key, uri=uri)


def _paths(key, uri, *paths):
    return IndexEntry(key=key, uri=uri, paths=tuple(paths))


def _ids(key, uri, *ids):
    return IndexEntry(key=key, uri=uri, ids=tuple(ids))


class TestDynamoStore:
    def test_presence_round_trip(self, cloud, dynamo_store):
        entries = [_presence("ename", "a.xml"), _presence("ename", "b.xml")]

        def scenario():
            stats = yield from dynamo_store.write_entries("idx", entries)
            payloads, gets = yield from dynamo_store.read_key(
                "idx", "ename", "presence")
            return stats, payloads, gets
        stats, payloads, gets = cloud.env.run_process(scenario())
        assert set(payloads) == {"a.xml", "b.xml"}
        assert gets == 1
        assert stats.puts >= 1

    def test_paths_round_trip(self, cloud, dynamo_store):
        entries = [_paths("ename", "a.xml", "/ea/ename", "/ea/eb/ename")]

        def scenario():
            yield from dynamo_store.write_entries("idx", entries)
            payloads, _ = yield from dynamo_store.read_key(
                "idx", "ename", "paths")
            return payloads
        payloads = cloud.env.run_process(scenario())
        assert payloads["a.xml"] == ("/ea/ename", "/ea/eb/ename")

    def test_ids_round_trip_binary(self, cloud, dynamo_store):
        ids = (NodeID(3, 3, 2), NodeID(6, 8, 3))
        entries = [_ids("ename", "a.xml", *ids)]

        def scenario():
            yield from dynamo_store.write_entries("idx", entries)
            payloads, _ = yield from dynamo_store.read_key(
                "idx", "ename", "ids")
            return payloads
        payloads = cloud.env.run_process(scenario())
        assert payloads["a.xml"] == list(ids)

    def test_uuid_packing_shares_items(self, cloud, dynamo_store):
        entries = [_presence("ename", "doc{}.xml".format(i))
                   for i in range(50)]

        def scenario():
            return (yield from dynamo_store.write_entries("idx", entries))
        stats = cloud.env.run_process(scenario())
        # All 50 URIs share one key and fit one item.
        assert stats.items == 1
        assert cloud.dynamodb.table("idx").item_count() == 1

    def test_attribute_mode_one_item_per_entry(self, cloud):
        store = DynamoIndexStore(cloud.dynamodb, seed=2,
                                 range_key_mode="attribute")
        store.create_table("alt")
        entries = [_presence("ename", "doc{}.xml".format(i))
                   for i in range(10)]

        def scenario():
            return (yield from store.write_entries("alt", entries))
        stats = cloud.env.run_process(scenario())
        assert stats.items == 10

    def test_invalid_range_key_mode(self, cloud):
        with pytest.raises(IndexingError):
            DynamoIndexStore(cloud.dynamodb, range_key_mode="bogus")

    def test_oversized_id_entry_splits(self, cloud, dynamo_store):
        # ~70k IDs encode past the 64 KB item limit and must shard.
        ids = tuple(NodeID(i, i, 5) for i in range(1, 70001))
        entries = [IndexEntry(key="ebig", uri="huge.xml", ids=ids)]

        def scenario():
            stats = yield from dynamo_store.write_entries("idx", entries)
            payloads, _ = yield from dynamo_store.read_key(
                "idx", "ebig", "ids")
            return stats, payloads
        stats, payloads = cloud.env.run_process(scenario())
        assert stats.items >= 2
        assert payloads["huge.xml"] == list(ids)  # reassembled, sorted

    @pytest.mark.parametrize("mode", ["uuid", "attribute", "content"])
    def test_id_list_splits_by_encoded_size(self, cloud, mode):
        # Cut into three equal counts, the middle chunk's ``post`` >=
        # 16,384 takes 3-byte varints and overflows the item limit.
        store = DynamoIndexStore(cloud.dynamodb, seed=1, range_key_mode=mode)
        store.create_table("idx")
        ids = tuple(NodeID(i, i, 1) for i in range(1, 40000))

        def scenario():
            stats = yield from store.write_entries(
                "idx", [IndexEntry(key="ebig", uri="big.xml", ids=ids)])
            payloads, _ = yield from store.read_key("idx", "ebig", "ids")
            return stats, payloads
        stats, payloads = cloud.env.run_process(scenario())
        items = cloud.dynamodb.table("idx").all_items()
        assert stats.items == len(items) == 4
        assert max(item.size_bytes for item in items) <= MAX_ITEM_BYTES
        assert payloads["big.xml"] == list(ids)

    def test_read_keys_batches(self, cloud, dynamo_store):
        entries = [_presence("k{}".format(i), "d.xml") for i in range(150)]

        def scenario():
            yield from dynamo_store.write_entries("idx", entries)
            keys = ["k{}".format(i) for i in range(150)]
            return (yield from dynamo_store.read_keys(
                "idx", keys, "presence"))
        payloads, gets = cloud.env.run_process(scenario())
        assert gets == 150  # billable gets, even though batched in 2 calls
        assert cloud.meter.request_count("dynamodb", "get") == 150
        assert all(payloads["k{}".format(i)] for i in range(150))

    def test_read_unknown_key_empty(self, cloud, dynamo_store):
        def scenario():
            return (yield from dynamo_store.read_key("idx", "nope", "ids"))
        payloads, gets = cloud.env.run_process(scenario())
        assert payloads == {}
        assert gets == 1

    def test_deterministic_uuids(self, cloud):
        first = DynamoIndexStore(cloud.dynamodb, seed=9)
        second = DynamoIndexStore(cloud.dynamodb, seed=9)
        assert first._uuid() == second._uuid()


class TestSimpleDBStore:
    def test_presence_round_trip(self, cloud, simpledb_store):
        entries = [_presence("ename", "a.xml")]

        def scenario():
            yield from simpledb_store.write_entries("idx", entries)
            return (yield from simpledb_store.read_key(
                "idx", "ename", "presence"))
        payloads, gets = cloud.env.run_process(scenario())
        assert set(payloads) == {"a.xml"}

    def test_ids_stored_as_text_chunks(self, cloud, simpledb_store):
        ids = tuple(NodeID(i, i + 1, 3) for i in range(1, 400))
        entries = [IndexEntry(key="ek", uri="a.xml", ids=ids)]

        def scenario():
            yield from simpledb_store.write_entries("idx", entries)
            return (yield from simpledb_store.read_key("idx", "ek", "ids"))
        payloads, _ = cloud.env.run_process(scenario())
        assert payloads["a.xml"] == list(ids)

    def test_long_path_rejected(self, cloud, simpledb_store):
        entries = [_paths("ek", "a.xml", "/e" + "x" * 2000)]

        def scenario():
            yield from simpledb_store.write_entries("idx", entries)
        with pytest.raises(IndexingError):
            cloud.env.run_process(scenario())

    def test_many_pairs_shard_items(self, cloud, simpledb_store):
        entries = [_presence("ename", "doc{}.xml".format(i))
                   for i in range(300)]  # > 256 attribute pairs

        def scenario():
            return (yield from simpledb_store.write_entries("idx", entries))
        stats = cloud.env.run_process(scenario())
        assert stats.items >= 2

    def test_read_keys_one_select_per_key(self, cloud, simpledb_store):
        entries = [_presence("k{}".format(i), "d.xml") for i in range(5)]

        def scenario():
            yield from simpledb_store.write_entries("idx", entries)
            return (yield from simpledb_store.read_keys(
                "idx", ["k0", "k1", "k2"], "presence"))
        payloads, gets = cloud.env.run_process(scenario())
        assert gets == 3


class TestChunking:
    def test_chunks_under_limit(self):
        ids = [NodeID(i, i, 2) for i in range(1, 1000)]
        for chunk in _chunk_ids_text(ids):
            assert len(chunk.encode("utf-8")) <= 1024

    def test_chunks_carry_sequence_numbers(self):
        ids = [NodeID(i, i, 2) for i in range(1, 500)]
        chunks = _chunk_ids_text(ids)
        assert [int(c.split("|", 1)[0]) for c in chunks] == \
            list(range(len(chunks)))

    def test_single_small_chunk(self):
        chunks = _chunk_ids_text([NodeID(1, 1, 1)])
        assert len(chunks) == 1
        assert chunks[0].startswith("0000|")


class TestOnDiskContract:
    """Stored bytes pinned as literals (taken from the seed's write
    path): a faster encoder, canonical form or key draw may not move
    what lands in the store or in the batch ledger."""

    THIRD = ("<painting id=\"1889-é\"><name>Café Terrace — Arles"
             "</name><year>1888</year><name>café</name></painting>")

    def _batch(self, paper_documents):
        from repro.indexing.two_lupi import TwoLUPIStrategy
        from repro.xmldb.parser import parse_document
        documents = list(paper_documents) + [
            parse_document(self.THIRD.encode("utf-8"), "vangogh.xml")]
        strategy = TwoLUPIStrategy()
        extracted = {"lup": [], "lui": []}
        for document in documents:
            for table, entries in strategy.extract(document).items():
                extracted[table].extend(entries)
        return extracted

    def test_batch_ledger_hash(self, paper_documents):
        from repro.indexing.mapper import batch_entries_hash
        extracted = self._batch(paper_documents)
        assert len(extracted["lup"]) == len(extracted["lui"]) == 31
        assert batch_entries_hash(extracted) == (
            "22d1b643fa82a9841bc716862cbdd2dff821fc9c4c34a89adea772443652bb51")

    @pytest.mark.parametrize("key, uris, range_key, crc, size", [
        ("ename", ["delacroix.xml", "manet.xml", "vangogh.xml"],
         "97e44a3c-7afc-4158-a9e6-d83c6e880b82", "db31d308", 107),
        # A non-ASCII hash key: the canonical form counts its characters,
        # the item size its bytes.
        ("aid 1889-é", ["vangogh.xml"],
         "63988ca2-376f-4d1f-8567-f1e1f8c6043d", "8edfd596", 74),
    ])
    def test_content_addressed_item(self, cloud, paper_documents, key, uris,
                                    range_key, crc, size):
        from repro.indexing.checksums import (CHECKSUM_ATTR,
                                              canonical_item_bytes,
                                              item_checksum, range_key_of)
        store = DynamoIndexStore(cloud.dynamodb, range_key_mode="content")
        items = store._pack_items(self._batch(paper_documents)["lui"])
        item, = [item for item in items if item.hash_key == key]
        assert list(item.attributes) == uris + [CHECKSUM_ATTR]
        assert item.range_key == range_key
        assert item.attributes[CHECKSUM_ATTR] == (crc,)
        assert range_key_of(canonical_item_bytes(
            item.hash_key, item.attributes)) == range_key
        assert item_checksum(item.hash_key, item.attributes) == crc
        assert item.size_bytes == size

    def test_stored_id_blob(self, cloud, paper_documents):
        store = DynamoIndexStore(cloud.dynamodb, range_key_mode="content")
        items = store._pack_items(self._batch(paper_documents)["lui"])
        item, = [item for item in items if item.hash_key == "ename"]
        assert item.attributes["vangogh.xml"] == (
            b"\x02\x03\x03\x02\x04\x07\x02",)

    def test_seeded_uuid_range_keys(self, cloud, paper_documents):
        store = DynamoIndexStore(cloud.dynamodb, seed=20130318)
        items = store._pack_items(self._batch(paper_documents)["lup"])
        assert [(item.hash_key, item.range_key) for item in items[:2]] == [
            ("aid", "060e74c3-aa00-4523-a0b8-ff81f16dfa7f"),
            ("aid 1854-1", "3225f4f5-0ed3-4835-88f3-4c5c413cf043")]

    def test_uuid4_text_is_the_stdlib_form(self):
        import random
        import uuid
        from repro.indexing.checksums import uuid4_text
        rng = random.Random(7)
        values = [0, 1, 2 ** 128 - 1] + [rng.getrandbits(128)
                                         for _ in range(2000)]
        for value in values:
            assert uuid4_text(value) == str(uuid.UUID(int=value, version=4))

    def test_compacted_epoch(self):
        """A folded epoch's digest and unit ledger hashes (literals
        taken from the entry-based fold, before bytes were carried)."""
        from repro.config import ScaleProfile
        from repro.consistency.ledger import BatchLedger
        from repro.warehouse import Warehouse
        from repro.xmark import generate_corpus
        from tests.mutations.test_live import make_increment
        warehouse = Warehouse()
        warehouse.upload_corpus(
            generate_corpus(ScaleProfile(documents=6, seed=11)))
        _, record = warehouse.build_index_checkpointed(
            "2LUPI", config={"loaders": 2, "batch_size": 4})
        live = warehouse.live_index(record.name)
        increment = make_increment(1, documents=2)
        warehouse.add_documents(live, increment, config={"loaders": 2})
        warehouse.update_document(
            live, warehouse.corpus.documents[1].uri,
            increment.data[increment.documents[0].uri])
        report = warehouse.compact_index(live)
        assert (report.entries_written, report.items) == (1236, 502)
        assert report.digest == (
            "715319912b2555eddae275c3250d236fa36f569cc19956cde2861e6917b4dedc")
        ledger = BatchLedger(warehouse.cloud.dynamodb,
                             "ldg-{}-e2-cmp".format(live.name.lower()))
        hashes = warehouse.cloud.env.run_process(ledger.entries())
        assert hashes == {
            "2LUPI-e2-cmp-chain": "[1, 2]",
            "2LUPI-e2-cmp-lui-s00": "50a3614a913b2509848b1b0aa84ed2432a"
                                    "4738734064a3f9396747fc717df4cf",
            "2LUPI-e2-cmp-lup-s00": "6fa3d43e128eb7484b405f79dffb3ba3a3"
                                    "6434a1c23d727ee05bc8c01fa0f884"}
