"""The headline scenario: live ingestion *under* serving traffic.

A serving fleet takes open-workload traffic while a background
mutation feed publishes delta epochs (two adds, one delete, one
update) and a compaction ticker folds the chain mid-run.  The run
must show: at least two delta flips and one committed compaction
interleaved with query traffic, read-your-writes across the flips,
query results after compaction identical to ground truth, and the
serving report's span-vs-estimator dollar tie-out still exact — the
ingest/compaction requests all bill into the serving phase.
"""

import pytest

from repro.config import ScaleProfile
from repro.engine.evaluator import evaluate_query
from repro.mutations import CompactionPolicy, compaction_ticker, mutation_feed
from repro.query.workload import workload_query
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

from tests.mutations.test_live import make_increment

pytestmark = [pytest.mark.ingest, pytest.mark.serving]

DOCUMENTS = 16
SEED = 77


@pytest.fixture(scope="module")
def outcome():
    """One serving run with live mutations and compaction in flight."""
    warehouse = Warehouse(deployment={"loaders": 2, "batch_size": 4,
                                      "workers": 2})
    warehouse.upload_corpus(generate_corpus(
        ScaleProfile(documents=DOCUMENTS, seed=SEED)))
    _, record = warehouse.build_index_checkpointed("LUI")
    live = warehouse.live_index(record.name)

    victim = warehouse.corpus.documents[0].uri
    target = warehouse.corpus.documents[1].uri
    donor_data = warehouse.corpus.data[warehouse.corpus.documents[2].uri]
    feed = mutation_feed(
        live,
        [("add", make_increment(1)),
         ("add", make_increment(2)),
         ("delete", [victim]),
         ("update", (target, donor_data))], interval_s=2.0)
    ticker = compaction_ticker(live, CompactionPolicy(max_deltas=3),
                               interval_s=5.0, max_ticks=6)
    report = warehouse.serve(
        {"arrival": "poisson", "rate_qps": 1.5, "queries": 40, "seed": 7},
        live, background=[feed, ticker])
    return warehouse, live, report


def test_deltas_flipped_and_compaction_committed_mid_serving(outcome):
    warehouse, live, report = outcome
    assert len(live.history) == 4            # two adds, delete, update
    assert [r.kind for r in live.history] == ["add", "add", "delete",
                                              "update"]
    committed = [c for c in live.compactions if c.committed]
    assert committed                          # >= 1 compaction under fire
    assert live.record.epoch >= 2
    # The flips landed while queries were in flight: traffic spans the
    # whole mutation window.
    first_flip = live.history[0].duration_s
    assert report.duration_s > first_flip


def test_serving_traffic_was_healthy_throughout(outcome):
    warehouse, live, report = outcome
    assert report.offered == 40
    assert report.completed == report.admitted == 40
    assert report.shed == 0


def test_read_your_writes_after_the_run(outcome):
    warehouse, live, report = outcome
    # The warehouse view absorbed every mutation...
    assert len(warehouse.corpus) == DOCUMENTS + 2 * 8 - 1
    # ...and the index answers match direct evaluation of that view,
    # through the very same handle the serving fleet used.
    for name in ("q2", "q6"):
        direct = evaluate_query(workload_query(name),
                                warehouse.corpus.documents)
        e = warehouse.run_query(workload_query(name), live)
        assert e.result_rows == len(direct), name


def test_serve_dollars_still_tie_out_exactly(outcome):
    warehouse, live, report = outcome
    # Every ingest/compaction request billed into the serving phase:
    # the span-inclusive rollup and the estimator still agree exactly.
    assert report.request_cost > 0
    assert report.request_cost == report.estimator_request_cost
    assert report.cost_tied_out


def test_mutations_under_serve_are_span_attributed(outcome):
    warehouse, live, report = outcome
    tracer = warehouse.telemetry.tracer
    names = [span.name for span in tracer.spans]
    assert names.count("ingest-delta") >= 4
    assert "compaction" in names
    # Delta spans nest under the serve span: the serve subtree owns
    # their dollars, which is what keeps the tie-out exact.
    serve = next(s for s in tracer.spans if s.name == "serve")
    deltas = [s for s in tracer.spans if s.name == "ingest-delta"]
    by_id = {s.span_id: s for s in tracer.spans}

    def has_ancestor(span, ancestor_id):
        while span.parent_id:
            if span.parent_id == ancestor_id:
                return True
            span = by_id[span.parent_id]
        return False

    assert all(has_ancestor(s, serve.span_id) for s in deltas)
