"""Delta-epoch publication: read-your-writes, tombstones, pricing.

The live-mutation contract: ``add_documents`` / ``delete_documents``
/ ``update_document`` publish small immutable delta epochs through
one conditional manifest flip each, and a query issued through the
same :class:`~repro.mutations.live.LiveIndex` handle *immediately*
observes the mutation — no rebuild, no worker restart — while every
mutation dollar ties out exactly against the cost estimator.
"""

import math

import pytest

from repro.config import ScaleProfile
from repro.costs.estimator import CostBreakdown
from repro.engine.evaluator import evaluate_query
from repro.errors import IndexingError, WarehouseError
from repro.mutations import CompactionReport, DeltaReport
from repro.query.workload import workload_query
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

pytestmark = pytest.mark.ingest

DOCUMENTS = 16
SEED = 31


def make_increment(batch, documents=8):
    """A small corpus whose URIs cannot collide with the base's."""
    corpus = generate_corpus(ScaleProfile(documents=documents,
                                          seed=7000 + batch))
    corpus.data = {"b{}-{}".format(batch, uri): data
                   for uri, data in corpus.data.items()}
    for document in corpus.documents:
        document.uri = "b{}-{}".format(batch, document.uri)
    corpus.kinds = {"b{}-{}".format(batch, uri): kind
                    for uri, kind in corpus.kinds.items()}
    return corpus


def fresh_live(strategy="LUI", deployment=None):
    """A warehouse with one committed epoch and its live handle."""
    warehouse = Warehouse(deployment=deployment)
    warehouse.upload_corpus(
        generate_corpus(ScaleProfile(documents=DOCUMENTS, seed=SEED)))
    _, record = warehouse.build_index_checkpointed(
        strategy, loaders=2, batch_size=4)
    return warehouse, warehouse.live_index(record.name)


def query_rows(warehouse, live, name="q6"):
    execution = warehouse.run_query(workload_query(name), live)
    return execution


def test_add_documents_is_read_your_writes_and_priced():
    warehouse, live = fresh_live()
    before = query_rows(warehouse, live)
    increment = make_increment(1)
    report = warehouse.add_documents(live, increment, loaders=2)
    assert report.kind == "add"
    assert report.seq == 1
    assert report.documents == len(increment)
    assert report.puts > 0 and report.entries > 0
    assert len(live.deltas) == 1
    # The add is its own metered phase under the report's tag.
    assert report.tag.startswith("ingest:")
    assert warehouse.phases[-1].tag == report.tag
    assert warehouse.cloud.meter.records(tag_prefix=report.tag)
    # The very next query through the same handle sees the delta.
    after = query_rows(warehouse, live)
    assert after.docs_from_index > before.docs_from_index
    assert after.result_rows > before.result_rows
    # Span dollars == estimator dollars, to the last float bit.
    assert report.span_cost is not None
    assert report.estimator_cost is not None
    assert report.cost_tied_out
    assert abs(report.span_cost.total
               - report.estimator_cost.total) < 1e-9


def test_results_match_direct_evaluation_after_mutations():
    warehouse, live = fresh_live()
    warehouse.add_documents(live, make_increment(1), loaders=2)
    victims = [d.uri for d in warehouse.corpus.documents[:2]]
    warehouse.delete_documents(live, victims)
    for name in ("q2", "q6"):
        execution = query_rows(warehouse, live, name)
        direct = evaluate_query(workload_query(name),
                                warehouse.corpus.documents)
        assert execution.result_rows == len(direct), name


def test_delete_then_readd_resolves_to_the_readded_document():
    warehouse, live = fresh_live()
    increment = make_increment(1)
    warehouse.add_documents(live, increment, loaders=2)
    baseline = query_rows(warehouse, live)

    # Delete an increment document that actually contributes to q6, so
    # the tombstone visibly shrinks the answer.
    query = workload_query("q6")
    victim = next(d.uri for d in increment.documents
                  if evaluate_query(query, [d]))
    report = warehouse.delete_documents(live, [victim])
    assert report.kind == "delete"
    assert report.tombstones == (victim,)
    assert report.tables == {}  # tombstone-only: no delta tables
    assert victim not in warehouse.corpus.data
    deleted = query_rows(warehouse, live)
    assert deleted.docs_from_index < baseline.docs_from_index

    # Re-adding the same URI must win over the earlier tombstone
    # (newest-wins across the delta chain).
    from repro.xmark.corpus import Corpus
    doc = next(d for d in increment.documents if d.uri == victim)
    readd = Corpus(documents=[doc],
                   data={victim: increment.data[victim]},
                   kinds={victim: increment.kinds[victim]}
                   if victim in increment.kinds else {})
    warehouse.add_documents(live, readd, loaders=1)
    restored = query_rows(warehouse, live)
    assert restored.docs_from_index == baseline.docs_from_index
    assert restored.result_rows == baseline.result_rows


def test_update_document_is_atomic_and_visible():
    warehouse, live = fresh_live()
    # Replace one document's content with another existing document's
    # bytes: its old extraction must vanish, the new one appear.
    docs = warehouse.corpus.documents
    target, donor = docs[0].uri, docs[1].uri
    data = warehouse.corpus.data[donor]
    report = warehouse.update_document(live, target, data)
    assert report.kind == "update"
    assert report.tombstones == (target,)
    assert report.documents == 1
    assert report.cost_tied_out
    assert warehouse.corpus.data[target] == data
    for name in ("q2", "q6"):
        execution = query_rows(warehouse, live, name)
        direct = evaluate_query(workload_query(name),
                                warehouse.corpus.documents)
        assert execution.result_rows == len(direct), name


def test_mutation_validation_errors():
    warehouse, live = fresh_live()
    with pytest.raises(WarehouseError):
        warehouse.add_documents(live, warehouse.corpus)  # URI overlap
    with pytest.raises(WarehouseError):
        warehouse.delete_documents(live, ["no-such-document.xml"])
    with pytest.raises(WarehouseError):
        warehouse.update_document(live, "no-such-document.xml", b"<a/>")
    with pytest.raises(WarehouseError):
        warehouse.live_index("NOPE")


def test_merging_store_refuses_writes():
    warehouse, live = fresh_live()
    with pytest.raises(IndexingError):
        live.store.create_table("live-lui-lu")
    with pytest.raises(IndexingError):
        warehouse.cloud.env.run_process(
            live.store.write_entries("live-lui-lu", []))


def test_deletes_remove_documents_from_s3():
    warehouse, live = fresh_live()
    victim = warehouse.corpus.documents[0].uri
    assert warehouse.cloud.s3.has_object("documents", victim)
    warehouse.delete_documents(live, [victim])
    assert not warehouse.cloud.s3.has_object("documents", victim)


def test_failed_delete_publication_destroys_nothing(monkeypatch):
    """Tombstone-first: S3 objects outlive a publication that loses
    every flip attempt, so the index never serves unfetchable URIs."""
    from repro.consistency.manifest import Manifest
    from repro.errors import BuildStateError

    warehouse, live = fresh_live()
    victim = warehouse.corpus.documents[0].uri

    def lose_every_flip(self, head, expected_version):
        raise BuildStateError("injected: lost the flip")
        yield  # pragma: no cover - keeps this a generator

    monkeypatch.setattr(Manifest, "put_live_head", lose_every_flip)
    with pytest.raises(BuildStateError):
        warehouse.delete_documents(live, [victim])
    assert warehouse.cloud.s3.has_object("documents", victim)
    assert victim in warehouse.corpus.data
    assert live.deltas == []


def test_live_attach_reflects_published_chain():
    warehouse, live = fresh_live()
    warehouse.add_documents(live, make_increment(1), loaders=2)
    # A second handle attached later sees the same chain and serves
    # identical results.
    other = warehouse.live_index(live.name)
    assert other.version == live.version
    assert [d.seq for d in other.deltas] == [d.seq for d in live.deltas]
    a = query_rows(warehouse, live)
    b = query_rows(warehouse, other)
    assert (a.docs_from_index, a.result_rows) == (b.docs_from_index,
                                                  b.result_rows)


def test_ingestion_report_is_byte_deterministic():
    """Same seeds, same mutation schedule -> byte-identical report."""

    def scenario():
        warehouse, live = fresh_live()
        warehouse.add_documents(live, make_increment(1), loaders=2)
        warehouse.delete_documents(
            live, [warehouse.corpus.documents[0].uri])
        warehouse.add_documents(live, make_increment(2), loaders=2)
        warehouse.compact_index(live)
        return live.ingestion_report().to_json()

    first, second = scenario(), scenario()
    assert first == second
    assert '"deltas"' in first and '"compactions"' in first


@pytest.mark.parametrize("make_report", [
    lambda: DeltaReport(name="LUI", kind="add", seq=1, base_epoch=1,
                        version=2, documents=1, tombstones=(), tables={},
                        digest="", duration_s=0.0),
    lambda: CompactionReport(name="LUI", from_epoch=1, to_epoch=2,
                             folded_seqs=(1,)),
], ids=["delta", "compaction"])
def test_cost_tie_out_is_exact_to_the_last_bit(make_report):
    """A span roll-up one ulp off the estimator is a mismatch."""
    report = make_report()
    assert report.cost_tied_out is None  # unpriced
    report.estimator_cost = CostBreakdown(s3=0.3)
    report.span_cost = CostBreakdown(s3=0.3)
    assert report.cost_tied_out is True
    report.span_cost = CostBreakdown(s3=math.nextafter(0.3, 1.0))
    assert report.cost_tied_out is False


def test_a_repeated_live_lookup_replays_its_answer():
    warehouse, live = fresh_live()
    warehouse.add_documents(live, make_increment(1), loaders=2)
    warehouse.delete_documents(live, [warehouse.corpus.documents[0].uri])
    memo = live.store.answer_memo
    assert memo is warehouse.answer_memo
    lookup = live.make_lookup(warehouse.telemetry.tracer)
    pattern = workload_query("q6").patterns[0]
    first = warehouse.cloud.env.run_process(lookup.lookup_pattern(pattern))
    hits = memo.hits
    again = warehouse.cloud.env.run_process(lookup.lookup_pattern(pattern))
    assert memo.hits > hits
    assert (again.uris, again.rows_processed) == (first.uris,
                                                  first.rows_processed)
