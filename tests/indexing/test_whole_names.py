"""A stored name is whole: a URI, a key or ``#crc``.

An index item names its attributes by the URI of the document they
index (§6), and the one bookkeeping attribute is ``CHECKSUM_ATTR``.  A
SimpleDB item is named ``key#<uuid>`` ([8]) and parsed back at its last
``#``.  So a document whose URI holds ``#`` answers like any other, a
SimpleDB read of key ``k`` returns only ``k``'s postings (not those of
a key ``k#x``), and the one URI that would collide is refused at the
front door.  The corpus: 24 documents, one URI holding ``#`` (the only
document q1 answers from) and one attribute value holding ``#``.
"""

import json

import pytest

from repro.config import ScaleProfile
from repro.consistency.build import META_BUCKET, inventory_key
from repro.engine.evaluator import evaluate_query
from repro.errors import WarehouseError
from repro.indexing.checksums import CHECKSUM_ATTR
from repro.indexing.registry import strategy as strategy_by_name
from repro.query.workload import workload_query
from repro.warehouse import Warehouse
from repro.warehouse.warehouse import DOCUMENT_BUCKET, RESULTS_BUCKET
from repro.xmark import generate_corpus
from repro.xmark.corpus import Corpus
from repro.xmldb.parser import parse_document

QUERIES = ["q{}".format(n) for n in range(1, 11)]
STRATEGIES = ("LU", "LUP", "LUI", "2LUPI")
HASHED = "people-00003.xml#p3"
CATEGORY = "acategory cat0"


def _renamed(corpus, renames, data=None):
    """``corpus`` with URIs renamed and documents' bytes replaced."""
    data = data or {}
    out = {renames.get(uri, uri): data.get(uri, raw)
           for uri, raw in corpus.data.items()}
    return Corpus(
        documents=[parse_document(out[uri], uri) for uri in out],
        data=out,
        kinds={renames.get(uri, uri): kind
               for uri, kind in corpus.kinds.items()},
        restructured=corpus.restructured,
        heterogenized=corpus.heterogenized)


def hashed_corpus():
    corpus = generate_corpus(ScaleProfile(documents=24, seed=20130318))
    people = corpus.data["people-00004.xml"]
    assert b'category="cat0"' in people
    corpus = _renamed(corpus, {"people-00003.xml": HASHED}, data={
        "people-00004.xml": people.replace(b'category="cat0"',
                                           b'category="cat0#1"')})
    rows = evaluate_query(workload_query("q1"), corpus.documents)
    assert [row.uri for row in rows] == [HASHED]
    return corpus


def _lines(rows):
    return sorted("\n".join("\t".join(row.projections)
                            for row in rows).split("\n"))


def _stored(warehouse, execution):
    return sorted(warehouse.cloud.s3.peek(
        RESULTS_BUCKET, "results/{}.txt".format(execution.query_id))
        .data.decode("utf-8").split("\n"))


def _vanished(warehouse):
    metric = warehouse.telemetry.registry.get("documents_vanished_total")
    return 0 if metric is None else metric.total()


@pytest.fixture(scope="module")
def indexed():
    warehouse = Warehouse()
    warehouse.upload_corpus(hashed_corpus())
    built = {name: warehouse.build_index(name) for name in STRATEGIES}
    baseline = {name: warehouse.run_query(workload_query(name), None)
                for name in QUERIES}
    return warehouse, built, baseline


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_answers_like_no_index(indexed, strategy):
    warehouse, built, baseline = indexed
    for name in QUERIES:
        execution = warehouse.run_query(workload_query(name),
                                        built[strategy])
        expected = baseline[name]
        assert _stored(warehouse, execution) == _stored(
            warehouse, expected), name
        assert execution.result_rows == expected.result_rows, name
        assert (execution.docs_with_results
                == expected.docs_with_results), name
    assert _vanished(warehouse) == 0


def _assert_answers(warehouse, live, model):
    documents = list(model.values())
    for name in QUERIES:
        query = workload_query(name)
        execution = warehouse.run_query(query, live)
        assert _stored(warehouse, execution) == _lines(
            evaluate_query(query, documents)), name
    assert _vanished(warehouse) == 0


def _inventory_uris(warehouse, live):
    uris = set()
    for logical in live.strategy.logical_tables:
        inventory = warehouse.cloud.s3.peek(META_BUCKET, inventory_key(
            live.name, live.record.epoch, logical)).data
        for key_uris in json.loads(inventory).values():
            uris.update(key_uris)
    return uris


def test_a_live_index_adds_updates_compacts_and_deletes_a_hashed_uri():
    corpus = hashed_corpus()
    base = Corpus(
        documents=[doc for doc in corpus.documents if doc.uri != HASHED],
        data={uri: raw for uri, raw in corpus.data.items() if uri != HASHED},
        kinds={uri: kind for uri, kind in corpus.kinds.items()
               if uri != HASHED})
    model = {doc.uri: doc for doc in base.documents}
    warehouse = Warehouse(deployment={"loaders": 2, "batch_size": 4})
    warehouse.upload_corpus(base)
    _, record = warehouse.build_index_checkpointed("2LUPI")
    live = warehouse.live_index(record.name)
    _assert_answers(warehouse, live, model)

    reserved = Corpus(
        documents=[parse_document(corpus.data[HASHED], CHECKSUM_ATTR)],
        data={CHECKSUM_ATTR: corpus.data[HASHED]})
    with pytest.raises(WarehouseError, match="reserved"):
        warehouse.add_documents(live, reserved)
    assert live.history == [] and len(warehouse.corpus) == 23
    assert not warehouse.cloud.s3.has_object(DOCUMENT_BUCKET, CHECKSUM_ATTR)

    increment = Corpus(
        documents=[doc for doc in corpus.documents if doc.uri == HASHED],
        data={HASHED: corpus.data[HASHED]},
        kinds={HASHED: corpus.kinds[HASHED]})
    warehouse.add_documents(live, increment)
    model[HASHED] = increment.documents[0]
    _assert_answers(warehouse, live, model)

    renamed = corpus.data[HASHED].replace(b"<name>", b"<name>Dr ", 1)
    assert renamed != corpus.data[HASHED]
    warehouse.update_document(live, HASHED, renamed)
    model[HASHED] = parse_document(renamed, HASHED)
    _assert_answers(warehouse, live, model)

    assert warehouse.compact_index(live).committed
    uris = _inventory_uris(warehouse, live)
    assert HASHED in uris and "people-00003.xml" not in uris
    _assert_answers(warehouse, live, model)

    warehouse.delete_documents(live, [HASHED])
    del model[HASHED]
    _assert_answers(warehouse, live, model)
    assert warehouse.compact_index(live).committed
    assert HASHED not in _inventory_uris(warehouse, live)
    _assert_answers(warehouse, live, model)


def test_a_simpledb_read_of_k_never_returns_the_postings_of_k_hash_x():
    corpus = hashed_corpus()
    warehouse = Warehouse()
    warehouse.upload_corpus(corpus)
    built = warehouse.build_index("LU", config={"backend": "simpledb"})
    lu = strategy_by_name("LU")

    def holders(key):
        return sorted(doc.uri for doc in corpus.documents
                      if any(entry.key == key
                             for entry in lu.extract(doc)["lu"]))

    def read(key):
        payloads, gets = warehouse.cloud.env.run_process(built.store.read_key(
            built.table_names["lu"], key, "presence"))
        assert gets == 1
        return sorted(payloads)

    assert holders(CATEGORY + "#1") == ["people-00004.xml"]
    assert "people-00004.xml" not in holders(CATEGORY)
    assert read(CATEGORY) == holders(CATEGORY)
    assert read(CATEGORY + "#1") == ["people-00004.xml"]


def test_upload_refuses_the_checksum_attribute_as_a_uri():
    corpus = _renamed(generate_corpus(ScaleProfile(documents=4, seed=5)),
                      {"items-00002.xml": CHECKSUM_ATTR})
    warehouse = Warehouse()
    with pytest.raises(WarehouseError, match="reserved"):
        warehouse.upload_corpus(corpus)
    assert warehouse.corpus is None
    assert warehouse.cloud.s3.object_count(DOCUMENT_BUCKET) == 0
