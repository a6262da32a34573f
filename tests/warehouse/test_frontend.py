"""Unit tests for the front end (Figure 1, steps 1-3 / 7-8 / 16-18)."""

import pytest

from repro.tenancy import QueryRequest as Envelope
from repro.warehouse.frontend import Frontend
from repro.warehouse.messages import (LOADER_QUEUE, QUERY_QUEUE,
                                      RESPONSE_QUEUE, LoadRequest,
                                      QueryRequest, QueryResponse)


@pytest.fixture
def frontend(cloud):
    cloud.s3.create_bucket("documents")
    cloud.s3.create_bucket("results")
    for queue in (LOADER_QUEUE, QUERY_QUEUE, RESPONSE_QUEUE):
        cloud.sqs.create_queue(queue)
    return Frontend(cloud, "documents", "results")


def test_ingest_stores_and_enqueues(cloud, frontend):
    def scenario():
        yield from frontend.ingest("a.xml", b"<a/>")
    cloud.env.run_process(scenario())
    assert cloud.s3.peek("documents", "a.xml").data == b"<a/>"
    assert cloud.sqs.approximate_depth(LOADER_QUEUE) == 1

    def drain():
        body, handle = yield from cloud.sqs.receive(LOADER_QUEUE)
        yield from cloud.sqs.delete(LOADER_QUEUE, handle)
        return body
    body = cloud.env.run_process(drain())
    assert body == LoadRequest(uri="a.xml")


def test_submit_assigns_increasing_ids(cloud, frontend):
    def scenario():
        first = yield from frontend.submit(Envelope(query="//a", name="q1"))
        second = yield from frontend.submit(Envelope(query="//b", name="q2"))
        return first, second
    first, second = cloud.env.run_process(scenario())
    assert first < second
    assert cloud.sqs.approximate_depth(QUERY_QUEUE) == 2


def test_await_response_fetches_results(cloud, frontend):
    def scenario():
        yield from cloud.s3.put("results", "results/7.txt", b"row1\nrow2")
        yield from cloud.sqs.send(RESPONSE_QUEUE, QueryResponse(
            query_id=7, result_key="results/7.txt"))
        return (yield from frontend.await_response())
    result = cloud.env.run_process(scenario())
    assert result.query_id == 7
    assert result.payload == b"row1\nrow2"
    assert result.fetched_at == cloud.env.now
    assert cloud.sqs.in_flight_count(RESPONSE_QUEUE) == 0


def test_query_request_carries_text_and_name(cloud, frontend):
    def scenario():
        yield from frontend.submit(
            Envelope(query="//painting", name="fig2-q1"))
        body, handle = yield from cloud.sqs.receive(QUERY_QUEUE)
        yield from cloud.sqs.delete(QUERY_QUEUE, handle)
        return body
    body = cloud.env.run_process(scenario())
    assert isinstance(body, QueryRequest)
    assert body.text == "//painting"
    assert body.name == "fig2-q1"
    # The wire tenant stays "" for the default tenant so single-owner
    # runs keep the seed's byte-identical message shape.
    assert body.tenant == ""


def test_tenant_rides_the_wire_request(cloud, frontend):
    def scenario():
        yield from frontend.submit(
            Envelope(query="//painting", name="q", tenant="acme"))
        body, handle = yield from cloud.sqs.receive(QUERY_QUEUE)
        yield from cloud.sqs.delete(QUERY_QUEUE, handle)
        return body
    body = cloud.env.run_process(scenario())
    assert body.tenant == "acme"


