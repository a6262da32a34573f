"""Lease heartbeats and at-least-once delivery across fleet churn.

The serving runtime retires query processors while queries may be in
flight.  Two §3 invariants keep that safe:

- a *healthy* worker renews its message lease, so a query that runs
  longer than the queue's visibility timeout is never redelivered;
- a *retired* worker stops renewing, its lease lapses, and SQS
  redelivers the query to a surviving worker — at-least-once, deduped
  by query id at the front end.
"""

from __future__ import annotations

import pytest

from repro.config import ScaleProfile
from repro.query.parser import query_to_source
from repro.query.workload import workload_query
from repro.serving import Fleet
from repro.warehouse.messages import (QUERY_QUEUE, RESPONSE_QUEUE,
                                      QueryRequest, StopWorker)
from repro.warehouse.query_processor import QueryWorker
from repro.warehouse.warehouse import (DOCUMENT_BUCKET, RESULTS_BUCKET,
                                       Warehouse)
from repro.xmark import generate_corpus

pytestmark = pytest.mark.serving

DOCUMENTS = 20
SEED = 211


def _deployed(visibility_timeout):
    warehouse = Warehouse(deployment={
        "loaders": 2, "visibility_timeout": visibility_timeout})
    warehouse.upload_corpus(generate_corpus(
        ScaleProfile(documents=DOCUMENTS, seed=SEED)))
    index = warehouse.build_index("LUI")
    return warehouse, index


def _worker_fleet(warehouse, index, stats_sink):
    cloud = warehouse.cloud
    uris = [d.uri for d in warehouse.corpus.documents]
    return Fleet(cloud, "xl", lambda instance: QueryWorker(
        cloud, instance, index.make_lookup(cloud.telemetry.tracer),
        DOCUMENT_BUCKET,
        RESULTS_BUCKET, uris, stats_sink, {}))


def test_heartbeats_keep_a_slow_query_leased():
    """Processing far outlives a tiny visibility window, yet the lease
    never lapses: the worker's heartbeat renews it."""
    warehouse, index = _deployed(visibility_timeout=0.05)
    cloud = warehouse.cloud
    env = cloud.env
    stats_sink = {}
    fleet = _worker_fleet(warehouse, index, stats_sink)
    fleet.launch(1)
    query = workload_query("q2")

    def driver():
        yield from cloud.sqs.send(QUERY_QUEUE, QueryRequest(
            query_id=31, text=query_to_source(query), name="q2"))
        body, handle = yield from cloud.sqs.receive(RESPONSE_QUEUE)
        yield from cloud.sqs.delete(RESPONSE_QUEUE, handle)
        yield from cloud.sqs.send(QUERY_QUEUE, StopWorker())
        yield fleet.members[0].proc
        return body

    body = env.run_process(driver())
    assert body.query_id == 31
    stats = stats_sink[31]
    # The query really did outlive the lease window...
    assert stats.deleted_at - stats.received_at > 0.05
    # ...and still was never redelivered: heartbeats renewed it.
    assert cloud.sqs.redelivered_count(QUERY_QUEUE) == 0


def test_retiring_a_busy_worker_redelivers_its_query():
    """A no-drain retirement mid-query drops the lease; the survivor
    takes the redelivered message and the answer still arrives."""
    warehouse, index = _deployed(visibility_timeout=3.0)
    cloud = warehouse.cloud
    env = cloud.env
    stats_sink = {}
    fleet = _worker_fleet(warehouse, index, stats_sink)
    fleet.launch(2)
    query = workload_query("q2")

    def driver():
        yield from cloud.sqs.send(QUERY_QUEUE, QueryRequest(
            query_id=44, text=query_to_source(query), name="q2"))
        # Wait for a worker to pick the query up, then yank it.
        while not any(m.worker.busy for m in fleet.members):
            yield env.timeout(0.01)
        victim = next(m for m in fleet.members if m.worker.busy)
        fleet.retire(victim)
        body, handle = yield from cloud.sqs.receive(RESPONSE_QUEUE)
        yield from cloud.sqs.delete(RESPONSE_QUEUE, handle)
        yield from cloud.sqs.send(QUERY_QUEUE, StopWorker())
        for member in list(fleet.members):
            yield member.proc
        return body, victim

    body, victim = env.run_process(driver())
    assert body.query_id == 44
    assert fleet.retired_busy_total == 1
    assert fleet.size == 1
    assert not victim.instance.running
    # The victim's lease lapsed and the survivor took the query over.
    assert cloud.sqs.redelivered_count(QUERY_QUEUE) == 1
    assert stats_sink[44].result_rows > 0
    assert cloud.s3.has_object(RESULTS_BUCKET, "results/44.txt")


def test_retiring_an_idle_worker_loses_nothing():
    """Draining an idle member leaves the queue untouched: a query
    submitted afterwards is answered with no redelivery."""
    warehouse, index = _deployed(visibility_timeout=3.0)
    cloud = warehouse.cloud
    env = cloud.env
    stats_sink = {}
    fleet = _worker_fleet(warehouse, index, stats_sink)
    fleet.launch(2)
    query = workload_query("q1")

    def driver():
        yield env.timeout(0.1)
        idle = fleet.idle_members()[0]
        fleet.retire(idle)
        yield from cloud.sqs.send(QUERY_QUEUE, QueryRequest(
            query_id=55, text=query_to_source(query), name="q1"))
        body, handle = yield from cloud.sqs.receive(RESPONSE_QUEUE)
        yield from cloud.sqs.delete(RESPONSE_QUEUE, handle)
        yield from cloud.sqs.send(QUERY_QUEUE, StopWorker())
        for member in list(fleet.members):
            yield member.proc
        return body

    body = env.run_process(driver())
    assert body.query_id == 55
    assert fleet.retired_busy_total == 0
    assert cloud.sqs.redelivered_count(QUERY_QUEUE) == 0
    assert stats_sink[55].result_rows >= 0
