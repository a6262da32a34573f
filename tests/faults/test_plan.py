"""FaultPlan construction and validation."""

import pytest

from repro.errors import ConfigError
from repro.faults import (CRASH_ROLES, FAULT_SERVICES, FaultPlan,
                          KIND_ERROR, KIND_LATENCY, KIND_THROTTLE)


def test_chaining_accumulates_specs():
    plan = (FaultPlan(seed=3)
            .transient_errors("s3", rate=0.1)
            .throttle(rate=0.2)
            .latency_spike("sqs", extra_s=0.5, rate=0.05)
            .crash(role="loader", after_s=1.5))
    assert [spec.kind for spec in plan.specs] == [
        KIND_ERROR, KIND_THROTTLE, KIND_LATENCY]
    assert len(plan.crashes) == 1
    assert plan.crashes[0].after_s == 1.5


def test_specs_for_filters_by_service():
    plan = (FaultPlan()
            .transient_errors("s3", rate=0.1)
            .transient_errors("sqs", rate=0.2))
    assert [s.service for s in plan.specs_for("s3")] == ["s3"]
    assert plan.specs_for("dynamodb") == []


def test_crashes_for_filters_by_role():
    plan = FaultPlan().crash(role="loader", after_s=2.0, worker=1)
    assert len(plan.crashes_for("loader")) == 1
    assert plan.crashes_for("loader")[0].worker == 1


def test_unknown_service_rejected():
    with pytest.raises(ConfigError):
        FaultPlan().transient_errors("smtp", rate=0.1)


def test_rate_out_of_bounds_rejected():
    with pytest.raises(ConfigError):
        FaultPlan().transient_errors("s3", rate=1.5)
    with pytest.raises(ConfigError):
        FaultPlan().transient_errors("s3", rate=-0.1)


def test_throttle_only_on_key_value_stores():
    FaultPlan().throttle(rate=0.5, service="simpledb")
    with pytest.raises(ConfigError):
        FaultPlan().throttle(rate=0.5, service="s3")


def test_unknown_crash_role_rejected():
    with pytest.raises(ConfigError):
        FaultPlan().crash(role="astronaut", after_s=1.0)


def test_fault_window_matching():
    plan = FaultPlan().throttle(rate=1.0, start_s=1.0, end_s=2.0)
    spec = plan.specs[0]
    assert not spec.active_at(0.5)
    assert spec.active_at(1.0)
    assert not spec.active_at(2.0)  # end is exclusive


def test_known_constants_cover_the_cloud():
    assert set(FAULT_SERVICES) == {"s3", "dynamodb", "simpledb", "sqs",
                                   "ec2"}
    assert "loader" in CRASH_ROLES


def test_damage_builders():
    plan = (FaultPlan(seed=3)
            .corrupt_item(table=0, count=2)
            .drop_table_partition(table=1))
    kinds = [spec.kind for spec in plan.damage]
    assert kinds == ["corrupt-item", "drop-table-partition"]
    assert plan.damage[0].count == 2
    assert plan.damage[1].table == 1


def test_damage_validation():
    with pytest.raises(ConfigError):
        FaultPlan().corrupt_item(table=-1)
    with pytest.raises(ConfigError):
        FaultPlan().drop_table_partition(count=0)
