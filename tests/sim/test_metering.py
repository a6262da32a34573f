"""Unit tests for the meter / cost attribution substrate."""

import pytest

from repro.errors import ConfigError, LabelCardinalityError
from repro.sim import Environment, Meter
from repro.telemetry import MetricsRegistry, TelemetryHub


def test_record_and_count():
    meter = Meter()
    meter.record(0.0, "s3", "put", bytes_in=100)
    meter.record(1.0, "s3", "get", bytes_out=50)
    meter.record(2.0, "dynamodb", "put", count=25)
    assert len(meter) == 3
    assert meter.request_count("s3") == 2
    assert meter.request_count("s3", "put") == 1
    assert meter.request_count("dynamodb", "put") == 25


def test_bytes_totals():
    meter = Meter()
    meter.record(0.0, "s3", "put", bytes_in=100)
    meter.record(0.0, "s3", "get", bytes_out=70)
    meter.record(0.0, "dynamodb", "get", bytes_out=30)
    totals = meter.totals()
    assert totals.bytes_in[("s3", "put")] == 100
    assert totals.bytes_out[("s3", "get")] == 70
    assert sum(totals.bytes_out.values()) == 100


def test_tag_scope_nesting():
    meter = Meter()
    with meter.tagged("outer"):
        meter.record(0.0, "s3", "put")
        with meter.tagged("outer:inner"):
            meter.record(0.0, "s3", "put")
        meter.record(0.0, "s3", "put")
    meter.record(0.0, "s3", "put")  # untagged
    assert len(meter.records(tag="outer")) == 2
    assert len(meter.records(tag="outer:inner")) == 1
    assert len(meter.records(tag_prefix="outer")) == 3
    assert len(meter.records(tag="")) == 1




def test_totals_aggregation():
    meter = Meter()
    meter.record(0.0, "sqs", "send_message")
    meter.record(0.0, "sqs", "send_message")
    meter.record(0.0, "sqs", "delete_message")
    totals = meter.totals()
    assert totals.requests[("sqs", "send_message")] == 2
    assert totals.requests[("sqs", "delete_message")] == 1


def test_clear_preserves_tag_stack():
    meter = Meter()
    with meter.tagged("phase"):
        meter.record(0.0, "s3", "put")
        meter.clear()
        assert len(meter) == 0
        meter.record(0.0, "s3", "put")
        assert meter.records(tag="phase")


def test_extend_merges_records():
    source = Meter()
    source.record(0.0, "s3", "put")
    target = Meter()
    target.extend(source)
    assert len(target) == 1


def test_since_returns_what_a_phase_appended():
    meter = Meter()
    meter.record(0.0, "s3", "put")
    mark = meter.mark()
    assert meter.since(mark) == []
    second = meter.record(1.0, "s3", "get")
    third = meter.record(2.0, "sqs", "send_message")
    assert meter.since(mark) == [second, third]
    assert meter.since(0) == list(meter)
    # A copy: appending to the view leaves the meter alone.
    meter.since(mark).append(second)
    assert len(meter) == 3


def test_bound_meter_resolves_its_request_counter_once():
    meter = Meter()
    hub = TelemetryHub(Environment(), meter=meter)
    lookups = []
    resolve = hub.registry.counter
    hub.registry.counter = lambda *args: lookups.append(args) \
        or resolve(*args)
    for _ in range(5):
        meter.record(0.0, "s3", "put", count=2)
    assert lookups == []
    assert hub.registry.get("cloud_requests_total").value(
        service="s3", operation="put") == 10


def test_bound_request_series_refuses_a_negative_count_like_inc():
    meter = Meter()
    hub = TelemetryHub(Environment(), meter=meter)
    counter = hub.registry.get("cloud_requests_total")
    with pytest.raises(ConfigError):
        meter.record(0.0, "s3", "get", count=-1)
    assert counter.series() == []  # no series left behind
    meter.record(0.0, "s3", "get", count=2)
    with pytest.raises(ConfigError):  # bound: still checked
        meter.record(0.0, "s3", "get", count=-1)
    meter.record(0.0, "s3", "get")
    assert counter.value(service="s3", operation="get") == 3
    assert [key for key, _ in counter.series()] == [("s3", "get")]


def test_bound_request_series_keeps_the_cardinality_cap():
    meter = Meter()
    hub = TelemetryHub(Environment())
    hub.registry = MetricsRegistry(max_series_per_metric=2)
    hub.bind_meter(meter)
    meter.record(0.0, "s3", "get")
    meter.record(0.0, "s3", "put")
    with pytest.raises(LabelCardinalityError):
        meter.record(0.0, "sqs", "send_message")
    meter.record(0.0, "s3", "get", count=4)
    counter = hub.registry.get("cloud_requests_total")
    assert [(key, series[0]) for key, series in counter.series()] == [
        (("s3", "get"), 5.0), (("s3", "put"), 1.0)]
