"""A delete published beside reads: the look-up/fetch race.

A query can look a document up before the delete's tombstone flip and
fetch it after ``publish_delete`` has removed it from S3.  The fetch
then finds no object; the candidate contributes no rows, so the query
linearises after the delete instead of failing with ``NoSuchKey`` and
taking ``serve()`` with it.  The scenario below hits that window: 40
documents at 8 KB, a 2-worker fleet with a small cache, a burst of
eight queries, four documents deleted 0.18 simulated seconds in.
"""

import pytest

from repro.config import ScaleProfile
from repro.engine.evaluator import evaluate_query
from repro.mutations import mutation_feed
from repro.query.workload import workload_query
from repro.warehouse import Warehouse
from repro.warehouse.warehouse import RESULTS_BUCKET
from repro.xmark import generate_corpus

pytestmark = [pytest.mark.ingest, pytest.mark.serving]

DELETED = ("people-00009.xml", "people-00002.xml", "items-00017.xml",
           "closed-00035.xml")


def _lines(rows):
    return sorted("\n".join("\t".join(row.projections)
                            for row in rows).split("\n"))


def _stored(warehouse, query_id):
    """The rows the worker stored for ``query_id``, one per line."""
    return sorted(warehouse.cloud.s3.peek(
        RESULTS_BUCKET, "results/{}.txt".format(query_id))
        .data.decode("utf-8").split("\n"))


@pytest.fixture(scope="module")
def raced():
    corpus = generate_corpus(ScaleProfile(
        documents=40, document_bytes=8 * 1024, seed=20130318))
    warehouse = Warehouse.deploy({"workers": 2, "cache_bytes": 16384})
    warehouse.upload_corpus(corpus)
    _, record = warehouse.build_index_checkpointed("2LUPI")
    live = warehouse.live_index(record.name)
    report = warehouse.serve(
        {"arrival": "burst", "rate_qps": 4.0, "queries": 8, "seed": 3},
        live, background=[mutation_feed(live, [("delete", list(DELETED))],
                                        interval_s=0.18)])
    return warehouse, corpus, report


def test_every_query_answers_before_or_after_the_delete(raced):
    warehouse, corpus, report = raced
    assert report.completed == 8
    before = corpus.documents
    after = [doc for doc in before if doc.uri not in DELETED]
    for outcome in report.queries:
        query = workload_query(outcome.name)
        assert _stored(warehouse, outcome.query_id) in (
            _lines(evaluate_query(query, before)),
            _lines(evaluate_query(query, after))), outcome


def test_a_query_whose_candidates_vanished_answers_after_the_delete(raced):
    warehouse, corpus, report = raced
    tracer = warehouse.telemetry.tracer
    vanished = [span for span in tracer.spans
                if "documents_vanished" in span.attributes]
    assert vanished, "the scenario no longer hits the race"
    assert warehouse.telemetry.registry.get(
        "documents_vanished_total").total() == sum(
            span.attributes["documents_vanished"] for span in vanished)
    after = [doc for doc in corpus.documents if doc.uri not in DELETED]
    by_query_id = {outcome.query_id: outcome for outcome in report.queries}
    for span in vanished:
        query_span = next(tracer.get(span_id) for span_id in
                          tracer.ancestor_ids(span.span_id)
                          if tracer.get(span_id).name == "query")
        outcome = by_query_id[query_span.attributes["query_id"]]
        assert _stored(warehouse, outcome.query_id) == _lines(
            evaluate_query(workload_query(outcome.name), after))
