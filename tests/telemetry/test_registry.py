"""Metrics-registry tests: labels, cardinality caps, histogram buckets."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, LabelCardinalityError
from repro.telemetry import DEFAULT_BUCKETS, MetricsRegistry

pytestmark = pytest.mark.telemetry


def test_counter_is_get_or_create_and_sums_series():
    registry = MetricsRegistry()
    counter = registry.counter("requests_total", "Requests.",
                               ("service",))
    counter.inc(service="s3")
    counter.inc(2, service="dynamodb")
    assert counter.value(service="s3") == 1
    assert counter.value(service="dynamodb") == 2
    assert counter.value(service="sqs") == 0
    assert counter.total() == 3
    assert registry.counter("requests_total", labelnames=("service",)) \
        is counter


def test_counter_rejects_negative_increments():
    counter = MetricsRegistry().counter("ups", "Only up.")
    with pytest.raises(ConfigError):
        counter.inc(-1)


def test_label_names_must_match_declaration():
    counter = MetricsRegistry().counter("c", "", ("service",))
    with pytest.raises(ConfigError):
        counter.inc(region="eu")
    with pytest.raises(ConfigError):
        counter.inc(service="s3", region="eu")


def test_label_cardinality_is_capped_per_metric():
    registry = MetricsRegistry(max_series_per_metric=2)
    counter = registry.counter("c", "", ("key",))
    counter.inc(key="a")
    counter.inc(key="b")
    counter.inc(key="a")  # existing series: fine
    with pytest.raises(LabelCardinalityError):
        counter.inc(key="c")


def test_metric_redeclaration_with_other_shape_fails():
    registry = MetricsRegistry()
    registry.counter("m", "", ("a",))
    with pytest.raises(ConfigError):
        registry.gauge("m", "", ("a",))
    with pytest.raises(ConfigError):
        registry.counter("m", "", ("a", "b"))


def test_gauge_moves_both_ways():
    gauge = MetricsRegistry().gauge("depth", "", ("queue",))
    gauge.set(5, queue="q")
    gauge.inc(-2, queue="q")
    gauge.inc(queue="q")
    assert gauge.value(queue="q") == 4


def test_histogram_buckets_cumulate():
    registry = MetricsRegistry()
    histogram = registry.histogram("latency", "", (),
                                   buckets=(0.1, 1.0, 10.0))
    # +Inf is appended automatically.
    assert histogram.buckets == (0.1, 1.0, 10.0, float("inf"))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        histogram.observe(value)
    buckets = registry.snapshot()["latency"]["series"][0]["buckets"]
    assert [count for _, count in buckets] == [1, 3, 4, 5]


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ConfigError):
        MetricsRegistry().histogram("h", "", (), buckets=(1.0, 0.1))


def test_default_buckets_end_in_inf():
    assert DEFAULT_BUCKETS[-1] == float("inf")
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


def test_snapshot_is_json_shaped_and_deterministic():
    registry = MetricsRegistry()
    counter = registry.counter("requests_total", "Requests.", ("service",))
    counter.inc(3, service="s3")
    histogram = registry.histogram("latency", "Seconds.", (),
                                   buckets=(1.0,))
    histogram.observe(0.5)
    histogram.observe(2.0)
    snap = registry.snapshot()
    assert registry.names() == ["latency", "requests_total"]
    assert snap["requests_total"]["type"] == "counter"
    assert snap["requests_total"]["series"] == [
        {"labels": {"service": "s3"}, "value": 3}]
    buckets = snap["latency"]["series"][0]["buckets"]
    assert buckets == [[1.0, 1], ["+Inf", 2]]
    assert snap["latency"]["series"][0]["count"] == 2
    assert snap == registry.snapshot()


def test_render_emits_one_line_per_series():
    registry = MetricsRegistry()
    registry.counter("c", "", ("k",)).inc(k="x")
    registry.histogram("h", "").observe(0.25)
    rendered = registry.render()
    assert 'c{k=x} 1' in rendered
    assert "h count=1 sum=0.25" in rendered
