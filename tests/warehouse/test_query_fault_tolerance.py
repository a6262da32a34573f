"""Query-side fault tolerance: a crashed query processor's message is
taken over by another instance (§3's takeover story, query path)."""

import pytest

from repro.config import ScaleProfile
from repro.query.parser import query_to_source
from repro.query.workload import workload_query
from repro.warehouse.messages import (QUERY_QUEUE, RESPONSE_QUEUE,
                                      QueryRequest, StopWorker)
from repro.warehouse.query_processor import QueryWorker
from repro.warehouse.warehouse import (DOCUMENT_BUCKET, RESULTS_BUCKET,
                                       Warehouse)
from repro.xmark import generate_corpus


@pytest.fixture
def deployed():
    warehouse = Warehouse()
    warehouse.upload_corpus(generate_corpus(
        ScaleProfile(documents=25, seed=131)))
    index = warehouse.build_index("LUP", config={"loaders": 2})
    return warehouse, index


def test_crashed_query_worker_is_taken_over(deployed):
    warehouse, index = deployed
    cloud = warehouse.cloud
    env = cloud.env
    stats_sink = {}

    # A dedicated short-visibility queue scenario: reconfigure by
    # sending through the existing queue (visibility 120s) but crash
    # and then wait out the lease.
    crasher = QueryWorker(cloud, cloud.ec2.launch("l"),
                          index.make_lookup(cloud.telemetry.tracer),
                          DOCUMENT_BUCKET,
                          RESULTS_BUCKET,
                          [d.uri for d in warehouse.corpus.documents],
                          stats_sink, {})
    survivor = QueryWorker(cloud, cloud.ec2.launch("l"),
                           index.make_lookup(cloud.telemetry.tracer),
                           DOCUMENT_BUCKET,
                           RESULTS_BUCKET,
                           [d.uri for d in warehouse.corpus.documents],
                           stats_sink, {})
    query = workload_query("q2")

    def driver():
        yield from cloud.sqs.send(QUERY_QUEUE, QueryRequest(
            query_id=990, text=query_to_source(query), name="q2"))
        crash_proc = env.process(crasher.run(), name="crashing-qworker")
        # Let it pick the message up, then kill it mid-query.
        yield env.timeout(0.05)
        crash_proc.interrupt(RuntimeError("spot instance reclaimed"))
        try:
            yield crash_proc
        except RuntimeError:
            pass
        # The message lease (120s) lapses; the survivor takes over.
        survivor_proc = env.process(survivor.run(), name="survivor")
        result = yield from cloud.sqs.receive(RESPONSE_QUEUE)
        body, handle = result
        yield from cloud.sqs.delete(RESPONSE_QUEUE, handle)
        yield from cloud.sqs.send(QUERY_QUEUE, StopWorker())
        served = yield survivor_proc
        return body, served

    body, served = env.run_process(driver())
    assert body.query_id == 990
    assert served == 1
    assert cloud.sqs.redelivered_count(QUERY_QUEUE) == 1
    assert stats_sink[990].result_rows > 0
    # The results really landed in S3 despite the crash.
    assert cloud.s3.has_object(RESULTS_BUCKET, "results/990.txt")


def test_crash_does_not_corrupt_results(deployed):
    """A query run after a takeover computes the same answer as a
    clean run."""
    warehouse, index = deployed
    execution = warehouse.run_query(workload_query("q2"), index)
    from repro.engine.evaluator import evaluate_query
    direct = evaluate_query(workload_query("q2"),
                            warehouse.corpus.documents)
    assert execution.result_rows == len(direct)
