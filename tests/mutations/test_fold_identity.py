"""Folded once: identity of stored bytes is the compaction's contract.

The production fold carries index bytes from scan to put; the fold in
``fold_oracle`` inflates every payload to objects and encodes it again.
Twin warehouses run the same mutation chain and compact, one through
each: the new epochs must be item-for-item identical, down to the unit
ledger hashes, the report counters, the epoch digest and the
inventories — and still answer what ``evaluate_query`` answers.
"""

import dataclasses
import random

import pytest

from repro.cloud.dynamodb import DynamoItem
from repro.config import ScaleProfile
from repro.consistency.build import META_BUCKET, inventory_key
from repro.engine.evaluator import evaluate_query
from repro.indexing.checksums import CHECKSUM_ATTR
from repro.indexing.entries import IndexEntry
from repro.indexing import mapper
from repro.indexing.mapper import DynamoIndexStore
from repro.mutations import compactor
from repro.query.parser import parse_query
from repro.query.workload import workload_query
from repro.store.sharding import shard_of, shard_table_names
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus
from repro.xmark.corpus import Corpus
from repro.xmldb import blocks
from repro.xmldb.encoding import decode_ids
from repro.xmldb.parser import parse_document

from tests.mutations.fold_oracle import ReferenceCompactor
from tests.mutations.test_live import make_increment

pytestmark = pytest.mark.ingest

DOCUMENTS = 8
LOADERS = {"loaders": 2, "batch_size": 4}


def fresh_live(strategy, shards=1, extra=()):
    """A committed epoch over a small corpus (plus ``extra`` hand-made
    ``(uri, xml bytes)`` documents) and its live handle."""
    corpus = generate_corpus(ScaleProfile(documents=DOCUMENTS, seed=77))
    for uri, data in extra:
        corpus = Corpus(documents=corpus.documents
                        + [parse_document(data, uri)],
                        data={**corpus.data, uri: data},
                        kinds={**corpus.kinds, uri: "items"})
    warehouse = Warehouse(deployment={"shards": shards})
    warehouse.upload_corpus(corpus)
    _, record = warehouse.build_index_checkpointed(strategy, config=LOADERS)
    return warehouse, warehouse.live_index(record.name)


def mutate(warehouse, live, seed, steps):
    """A seeded chain of adds, updates, tombstone-only deletes and
    delete-then-re-adds; the same seed mutates twins identically."""
    rng = random.Random(seed)
    deleted = []
    for step in range(steps):
        uris = sorted(warehouse.corpus.data)
        op = rng.choice(["add", "update", "delete", "re-add"])
        if op == "re-add" and deleted:
            uri, data = deleted.pop(rng.randrange(len(deleted)))
            warehouse.add_documents(
                live, Corpus(documents=[parse_document(data, uri)],
                             data={uri: data}, kinds={uri: "items"}),
                config=LOADERS)
        elif op == "delete" and len(uris) > 3:
            uri = rng.choice(uris)
            deleted.append((uri, warehouse.corpus.data[uri]))
            warehouse.delete_documents(live, [uri])
        elif op == "update":
            source = make_increment(1000 * seed + step, documents=1)
            warehouse.update_document(live, rng.choice(uris),
                                      next(iter(source.data.values())),
                                      config=LOADERS)
        else:
            warehouse.add_documents(
                live, make_increment(1000 * seed + step,
                                     documents=rng.randint(1, 3)),
                config=LOADERS)


def compact(warehouse, live, monkeypatch, reference, decodes=None,
            **options):
    """``compact_index`` through the production fold or the oracle;
    every blob the production fold decodes — to ``NodeID``\\ s or to
    columns — goes to ``decodes``."""
    def counting(decode):
        def counted(data):
            decodes.append(len(data))
            return decode(data)
        return counted

    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(compactor, "Compactor", ReferenceCompactor)
        elif decodes is not None:
            patch.setattr(mapper, "decode_ids", counting(decode_ids))
            patch.setattr(blocks, "_decode_columns",
                          counting(blocks._decode_columns))
        return warehouse.compact_index(live, **options)


def epoch_image(warehouse, live):
    """Everything a committed compaction left behind, byte for byte."""
    cloud = warehouse.cloud
    record = live.record
    tables = {}
    for logical, table in sorted(record.tables.items()):
        for shard_table in shard_table_names(table, record.shards):
            tables[shard_table] = [
                (item.hash_key, item.range_key,
                 list(item.attributes.items()), item.size_bytes)
                for item in cloud.dynamodb.table(shard_table).all_items()]
    ledger = cloud.dynamodb.table("ldg-{}-e{}-cmp".format(
        live.name.lower(), record.epoch))
    return {
        "digest": record.digest, "shards": record.shards, "tables": tables,
        "ledger": {item.hash_key: item.attributes["hash"]
                   for item in ledger.all_items()},
        "inventories": {
            logical: cloud.s3.peek(META_BUCKET, inventory_key(
                live.name, record.epoch, logical)).data
            for logical in record.tables}}


def assert_same_epoch(produced, reference, reports):
    (warehouse, live), (twin, twin_live) = produced, reference
    report, twin_report = reports
    assert report.committed and twin_report.committed
    assert dataclasses.asdict(report) == dataclasses.asdict(twin_report)
    image, twin_image = (epoch_image(warehouse, live),
                         epoch_image(twin, twin_live))
    assert image["tables"] == twin_image["tables"]
    assert image == twin_image
    assert sum(map(len, image["tables"].values())) >= report.items > 0


def assert_answers(warehouse, live, queries):
    for query in queries:
        expected = evaluate_query(query, warehouse.corpus.documents)
        execution = warehouse.run_query(query, live)
        assert execution.result_rows == len(expected), query.name


WORKLOAD = [workload_query(name) for name in ("q2", "q6")]


@pytest.mark.parametrize("seed, strategy, shards", [
    (1, "2LUPI", 1), (2, "2LUPI", 3), (3, "LU", 1), (4, "LUP", 3),
    (5, "LUI", 1), (6, "2LUPI", 1)])
def test_generated_chains_fold_to_the_oracles_bytes(monkeypatch, seed,
                                                    strategy, shards):
    twins = [fresh_live(strategy, shards), fresh_live(strategy, shards)]
    decodes = []
    # Two rounds: the second folds a base the first fold wrote.
    for round_ in range(2):
        reports = []
        for reference, (warehouse, live) in enumerate(twins):
            mutate(warehouse, live, 10 * seed + round_, steps=4)
            reports.append(compact(warehouse, live, monkeypatch, reference,
                                   decodes))
        assert_same_epoch(twins[0], twins[1], reports)
    assert decodes == []  # what a build or a fold wrote is all carried
    assert_answers(*twins[0], WORKLOAD)


def test_interrupted_fold_resumes_to_the_oracles_bytes(monkeypatch):
    twins = [fresh_live("2LUPI", 3), fresh_live("2LUPI", 3)]
    reports = []
    for reference, (warehouse, live) in enumerate(twins):
        mutate(warehouse, live, 21, steps=4)
        partial = compact(warehouse, live, monkeypatch, reference,
                          max_units=2)
        assert partial.interrupted and partial.units_done == 2
        assert live.record.epoch == 1
        resumed = compact(warehouse, live, monkeypatch, reference)
        assert resumed.units_skipped == 2
        reports.append(resumed)
    assert_same_epoch(twins[0], twins[1], reports)
    assert_answers(*twins[0], WORKLOAD)


def test_fold_of_a_base_built_under_another_shard_count(monkeypatch):
    twins = []
    reports = []
    for reference in (False, True):
        warehouse, live = fresh_live("2LUPI", shards=1)
        warehouse.deployment = warehouse.deployment.override(shards=3)
        warehouse.store_config = warehouse.deployment.store_config
        live = warehouse.live_index(live.name)
        mutate(warehouse, live, 31, steps=3)
        reports.append(compact(warehouse, live, monkeypatch, reference))
        twins.append((warehouse, live))
    assert twins[0][1].record.shards == 3
    assert_same_epoch(twins[0], twins[1], reports)
    assert_answers(*twins[0], WORKLOAD)


# -- the decode fallback ----------------------------------------------------

#: One key with more IDs in one document than an item holds: the build
#: stores the list split, one chunk per item (``uri#0``, ``uri#1`` …
#: are those items' range keys in ``attribute`` mode).
BIG = ("big.xml", ("<site>" + "<bigitem><leaf/></bigitem>" * 14000
                   + "</site>").encode("utf-8"))
BIGGER = ("<site>" + "<bigitem><leaf/></bigitem>" * 14500
          + "</site>").encode("utf-8")
BIG_QUERIES = [parse_query("//bigitem[/leaf]", name="big")] + WORKLOAD


def base_items(warehouse, live, logical, key):
    """The base epoch's table and items holding ``key``."""
    record = live.record
    table = shard_table_names(record.tables[logical], record.shards)[
        shard_of(key, record.shards)]
    return table, [item for item in
                   warehouse.cloud.dynamodb.table(table).all_items()
                   if item.hash_key == key]


def test_split_id_lists_take_the_decode_route_and_resplit(monkeypatch):
    twins = [fresh_live("2LUPI", extra=[BIG]),
             fresh_live("2LUPI", extra=[BIG])]
    for round_ in range(2):
        reports = []
        decodes = []
        for reference, (warehouse, live) in enumerate(twins):
            _, items = base_items(warehouse, live, "lui", "ebigitem")
            assert [list(item.attributes) for item in items] == [
                ["big.xml", CHECKSUM_ATTR]] * 2
            if round_:
                # The update's delta stores its own split list; the
                # tombstone masks the base's.
                warehouse.update_document(live, "big.xml", BIGGER,
                                          config=LOADERS)
            mutate(warehouse, live, 40 + round_, steps=2)
            reports.append(compact(warehouse, live, monkeypatch, reference,
                                   decodes))
        # Two keys (``ebigitem``, ``eleaf``) hold a split list: each
        # layer's two chunks are decoded to merge (the base's too, when
        # the update masks it), the merged blob to re-split.
        assert len(decodes) == 2 * (2 * (1 + round_) + 1)
        assert_same_epoch(twins[0], twins[1], reports)
        for warehouse, live in twins:  # both, so the twins stay in step
            assert_answers(warehouse, live, BIG_QUERIES)
    _, items = base_items(*twins[0], "lui", "ebigitem")
    assert sorted(len(decode_ids(item.attributes["big.xml"][0]))
                  for item in items) == [7250, 7250]


def test_redelivered_blobs_and_duplicated_paths_are_deduplicated(
        monkeypatch):
    """What at-least-once delivery into a uuid-keyed table leaves — the
    same blob twice under two range keys, a path list twice — plus the
    same content under another checksummed item, and one checksummed
    attribute that repeats a path within itself."""
    twins = [fresh_live("2LUPI"), fresh_live("2LUPI")]
    reports = []
    decodes = []
    for reference, (warehouse, live) in enumerate(twins):
        db = warehouse.cloud.dynamodb
        stamped = DynamoIndexStore(db, range_key_mode="content")
        victim = warehouse.corpus.documents[0].uri
        for logical in ("lui", "lup"):
            table, items = base_items(warehouse, live, logical, "ename")
            values = next(item.attributes[victim] for item in items
                          if victim in item.attributes)
            duplicates = [
                DynamoItem("ename", "00000000-0000-4000-8000-00000000000{}"
                           .format(n), {victim: values}) for n in (1, 2)]
            duplicates += stamped._pack_items([
                IndexEntry("ename", victim, paths=values + ("/extra",))
                if logical == "lup" else
                IndexEntry("ename", victim,
                           ids=tuple(decode_ids(values[0])))])
            assert CHECKSUM_ATTR in duplicates[-1].attributes
            for item in duplicates:
                db.table(table)._items["ename"][item.range_key] = item
        # Two more keys, each with one anomaly inside one checksummed
        # attribute: a repeated path, a ``uri#chunk`` name.
        for key, rewrite in (
                ("epeople", lambda uri, paths: (uri, paths * 2)),
                ("eperson", lambda uri, paths: (uri + "#0", paths))):
            table, (item,) = base_items(warehouse, live, "lup", key)
            odd, = stamped._pack_items([
                IndexEntry(key, *(rewrite(uri, paths) if uri == victim
                                  else (uri, paths)))
                for uri, paths in item.attributes.items()
                if uri != CHECKSUM_ATTR])
            assert odd.attributes != item.attributes
            db.table(table)._items[key] = {odd.range_key: odd}
        mutate(warehouse, live, 50, steps=2)
        reports.append(compact(warehouse, live, monkeypatch, reference,
                               decodes))
    assert len(decodes) >= 3  # the blob's three sightings, at least
    assert_same_epoch(twins[0], twins[1], reports)
    warehouse, live = twins[0]
    victim = warehouse.corpus.documents[0].uri
    for key, last in (("ename", "/extra"), ("epeople", "/epeople"),
                      ("eperson", "/epeople/eperson")):
        _, items = base_items(warehouse, live, "lup", key)
        paths, = [item.attributes[victim] for item in items
                  if victim in item.attributes]
        assert paths[-1] == last and len(set(paths)) == len(paths)
    assert_answers(warehouse, live, WORKLOAD)


def test_a_blob_no_checksum_vouches_for_is_decoded_not_carried():
    """An unstamped item's bytes take the decode route, so what
    ``decode_ids`` refuses still raises instead of being copied."""
    from repro.errors import EncodingError
    warehouse, live = fresh_live("LUI")
    mutate(warehouse, live, 60, steps=1)
    table, _ = base_items(warehouse, live, "lui", "ename")
    warehouse.cloud.dynamodb.table(table)._items["ename"]["legacy"] = \
        DynamoItem("ename", "legacy", {"gone.xml": (b"\x02\x01\x01",)})
    with pytest.raises(EncodingError, match="truncated"):
        warehouse.compact_index(live)
    assert live.record.epoch == 1 and len(live.deltas) == 1
