"""Structured attribution tests: tag round-trips and meter stamping."""

from __future__ import annotations

import pytest

from repro.sim import Environment, Meter
from repro.telemetry import Attribution, TelemetryHub

pytestmark = pytest.mark.telemetry


def test_tag_round_trip_for_query_activity():
    attribution = Attribution(activity="query", query="q3")
    assert attribution.tag == "query:q3"
    assert Attribution.from_tag(attribution.tag) == attribution
    assert attribution.matches_activity("query")
    assert not attribution.matches_activity("scrub")


def test_tag_round_trip_for_detail_activity():
    attribution = Attribution(activity="index-build", detail="LUP:1")
    assert attribution.tag == "index-build:LUP:1"
    assert Attribution.from_tag(attribution.tag) == attribution


def test_empty_attribution_has_empty_tag():
    assert Attribution().tag == ""
    assert Attribution.from_tag("") == Attribution()
    assert str(Attribution(activity="scrub", detail="e1")) == "scrub:e1"


def test_from_tag_carries_span_id():
    attribution = Attribution.from_tag("query:q7", span_id=42)
    assert attribution.span_id == 42
    assert attribution.query == "q7"


def test_meter_accepts_attribution_in_tagged():
    meter = Meter()
    with meter.tagged(Attribution(activity="query", query="q5")):
        meter.record(0.0, "s3", "get")
    (record,) = list(meter)
    assert record.tag == "query:q5"
    assert record.attribution.activity == "query"
    assert record.attribution.query == "q5"


def test_records_filter_by_activity():
    meter = Meter()
    with meter.tagged("query:q1"):
        meter.record(0.0, "s3", "get")
    with meter.tagged("index-build:LU:1"):
        meter.record(1.0, "dynamodb", "put")
    meter.record(2.0, "sqs", "send_message")
    assert len(meter.records(activity="query")) == 1
    assert len(meter.records(activity="index-build")) == 1
    assert meter.records(activity="query")[0].service == "s3"


def test_bound_meter_stamps_active_span_id():
    env = Environment()
    meter = Meter()
    hub = TelemetryHub(env, meter=meter)
    meter.record(0.0, "s3", "get")  # outside any span
    with hub.span("workload"):
        meter.record(0.0, "s3", "get")
        with hub.span("query") as inner:
            meter.record(0.0, "dynamodb", "get")
    records = list(meter)
    assert records[0].span_id == 0
    assert records[1].span_id == 1
    assert records[2].span_id == inner.span_id
    assert records[2].attribution.span_id == inner.span_id


def test_bound_meter_mirrors_request_counts():
    env = Environment()
    meter = Meter()
    hub = TelemetryHub(env, meter=meter)
    meter.record(0.0, "s3", "get", count=3)
    meter.record(0.0, "s3", "get")
    counter = hub.registry.get("cloud_requests_total")
    assert counter.value(service="s3", operation="get") == 4
