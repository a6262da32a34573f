"""Per-tenant quotas at the admission controller."""

import pytest

from repro.serving.admission import ADMIT, DEGRADE, SHED, AdmissionController
from repro.serving.policy import AdmissionPolicy
from repro.tenancy import TenancyConfig, TenantSpec

pytestmark = pytest.mark.tenancy


def controller(cloud, tenants, policy=None, strategy="LUI"):
    return AdmissionController(
        cloud, policy, tenancy=TenancyConfig(tenants=tuple(tenants)),
        strategy=strategy)


def test_qps_quota_sheds_the_burst_tail(cloud):
    ctl = controller(cloud, [TenantSpec(name="acme", qps_quota=2.0)])
    # Burst of five arrivals at t=0 against a bucket holding two tokens
    # (capacity = max(1, rate)): the first two pass, the rest shed.
    decisions = [ctl.decide("acme") for _ in range(5)]
    assert decisions == [ADMIT, ADMIT, SHED, SHED, SHED]
    assert ctl.shed_by["acme"] == 3
    assert ctl.over_quota_by["acme"] == 3


def test_tokens_refill_with_simulated_time(cloud):
    ctl = controller(cloud, [TenantSpec(name="acme", qps_quota=2.0)])
    for _ in range(5):
        ctl.decide("acme")

    def wait():
        yield cloud.env.timeout(1.0)
    cloud.env.run_process(wait())
    # One second at 2 qps refills two tokens.
    assert ctl.decide("acme") == ADMIT
    assert ctl.decide("acme") == ADMIT
    assert ctl.decide("acme") == SHED


def test_over_quota_sheds_inside_the_degrade_band(cloud):
    from repro.warehouse.messages import QUERY_QUEUE
    cloud.sqs.create_queue(QUERY_QUEUE)

    def fill():
        for i in range(2):
            yield from cloud.sqs.send(QUERY_QUEUE, i)
    cloud.env.run_process(fill())
    ctl = controller(cloud, [TenantSpec(name="acme", qps_quota=1.0)],
                     policy=AdmissionPolicy(max_queue_depth=4,
                                            degrade_queue_depth=2))
    assert ctl.decide("acme") == DEGRADE   # in quota: the depth's band
    assert ctl.decide("acme") == SHED      # over quota: always shed
    assert ctl.degraded_by["acme"] == 1
    assert ctl.shed_by["acme"] == ctl.over_quota_by["acme"] == 1


def test_dollar_budget_uses_the_spend_lookup(cloud):
    ctl = controller(cloud, [TenantSpec(name="acme",
                                        dollar_budget=0.01)])
    spend = {"acme": 0.0}
    ctl.spend_lookup = lambda tenant: spend[tenant]
    assert ctl.decide("acme") == ADMIT
    spend["acme"] = 0.02
    assert ctl.decide("acme") == SHED
    assert ctl.over_quota_by["acme"] == 1


def test_unknown_tenants_are_unmetered(cloud):
    ctl = controller(cloud, [TenantSpec(name="acme", qps_quota=1.0)])
    decisions = [ctl.decide("other") for _ in range(5)]
    assert decisions == [ADMIT] * 5


def test_queue_depth_shed_dominates_quota(cloud):
    from repro.warehouse.messages import QUERY_QUEUE
    cloud.sqs.create_queue(QUERY_QUEUE)

    def fill():
        for i in range(4):
            yield from cloud.sqs.send(QUERY_QUEUE, i)
    cloud.env.run_process(fill())
    ctl = controller(cloud, [TenantSpec(name="acme", qps_quota=100.0)],
                     policy=AdmissionPolicy(max_queue_depth=4))
    assert ctl.decide("acme") == SHED


def test_counters_carry_strategy_and_tenant_labels(cloud):
    ctl = controller(cloud, [TenantSpec(name="acme", qps_quota=1.0)],
                     strategy="2LUPI")
    ctl.decide("acme")
    ctl.decide("acme")
    hub = cloud.telemetry
    admission = hub.counter(
        "serving_admission_total",
        "Admission decisions at the serving front door.",
        ("decision", "strategy"))
    assert admission.value(decision="admit", strategy="2LUPI") == 1
    assert admission.value(decision="shed", strategy="2LUPI") == 1
    tenant = hub.counter("tenant_admission_total",
                         "Per-tenant admission decisions.",
                         ("decision", "tenant"))
    assert tenant.value(decision="admit", tenant="acme") == 1
    assert tenant.value(decision="shed", tenant="acme") == 1
