"""Unit tests for the warehouse monitoring module."""

import pytest

from repro.config import ScaleProfile
from repro.query.workload import workload_query
from repro.warehouse import Warehouse
from repro.warehouse.monitoring import (InstanceUtilization, resource_report)
from repro.xmark import generate_corpus


@pytest.fixture(scope="module")
def warehouse():
    wh = Warehouse()
    wh.upload_corpus(generate_corpus(ScaleProfile(documents=40, seed=47)))
    index = wh.build_index("LUI", loaders=4)
    wh.run_query(workload_query("q2"), index)
    return wh


def test_report_structure(warehouse):
    report = resource_report(warehouse)
    assert report.time_s == warehouse.cloud.env.now
    assert {s.name for s in report.stores} >= {
        "dynamodb-write", "dynamodb-read"}
    assert len(report.instances) >= 5  # 4 loaders + 1 query processor
    assert {q.name for q in report.queues} == {
        "loader-requests", "query-requests", "query-responses"}


def test_dynamodb_write_pressure_recorded(warehouse):
    """Index building pushed the write limiter (the Table 4 bottleneck)."""
    report = resource_report(warehouse)
    write = report.store("dynamodb-write")
    assert write.requests > 0
    assert write.total_units > 0
    assert write.mean_queue_delay_s > 0, \
        "concurrent loaders should have queued on provisioned capacity"
    assert write.saturated


def test_read_side_used_by_queries(warehouse):
    report = resource_report(warehouse)
    read = report.store("dynamodb-read")
    assert read.requests > 0


def test_queues_drained_after_phases(warehouse):
    report = resource_report(warehouse)
    for queue in report.queues:
        assert queue.drained, queue


def test_instances_report_busy_fractions(warehouse):
    report = resource_report(warehouse)
    for instance in report.instances:
        assert 0.0 <= instance.busy_fraction <= 1.0
    assert any(instance.busy_ecu_s > 0 for instance in report.instances)


def test_request_counts_present(warehouse):
    report = resource_report(warehouse)
    assert report.request_counts.get("dynamodb:put", 0) > 0
    assert report.request_counts.get("s3:get", 0) > 0
    assert report.request_counts.get("sqs:send_message", 0) > 0


def test_render_mentions_everything(warehouse):
    text = resource_report(warehouse).render()
    for token in ("dynamodb-write", "loader-requests", "instances:",
                  "requests:"):
        assert token in text


def test_busy_fraction_zero_uptime():
    utilization = InstanceUtilization(
        instance_id="i-0", instance_type="l", uptime_s=0.0, busy_ecu_s=0.0)
    assert utilization.busy_fraction == 0.0


def test_unknown_lookups_raise(warehouse):
    report = resource_report(warehouse)
    with pytest.raises(KeyError):
        report.store("nope")
    with pytest.raises(KeyError):
        report.queue("nope")
