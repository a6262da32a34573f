"""The cost folds accumulate in place, bit for bit as they allocated.

Every fold over priced meter records — the serve report's estimator
total, the per-tenant partition, per-span direct costs, a priced
trace's total and a phase's request cost — is a left fold from 0.0 in
record order.  Folding into one mutable ``CostBreakdown`` must give the
same floats (``==``, not approximately) as building a new breakdown per
record did, and the tenant buckets must come out in the same order.
"""

import dataclasses
from functools import reduce

import pytest

from repro.costs.estimator import (CostBreakdown, phase_cost, price_record,
                                   price_records)
from repro.telemetry.costing import (breakdown_as_dict, priced_breakdown,
                                     span_direct_costs)
from repro.tenancy import TenancyConfig, TenantSpec
from repro.tenancy.billing import partition_costs, tenant_of_span

from tests.tenancy.test_serve_tenants import _warehouse

pytestmark = pytest.mark.tenancy


def _allocating(prices):
    return reduce(CostBreakdown.add, prices, CostBreakdown())


def _floats(by_key):
    return [(key, dataclasses.astuple(breakdown))
            for key, breakdown in by_key.items()]


@pytest.fixture(scope="module")
def served():
    warehouse = _warehouse(TenancyConfig(tenants=(
        TenantSpec(name="alpha", weight=3.0),
        TenantSpec(name="beta", weight=1.0))))
    index = warehouse.build_index("LUI")
    report = warehouse.serve({"arrival": "poisson", "rate_qps": 2.0,
                              "queries": 12, "seed": 7}, index)
    return warehouse, report


def test_report_and_phase_folds_equal_the_allocating_fold(served):
    warehouse, report = served
    meter, book = warehouse.cloud.meter, warehouse.cloud.price_book
    tagged = price_records(meter.records(tag_prefix=report.tag), book)
    folded = _allocating(price for _, price in tagged)
    assert folded.total > 0.0
    assert report.estimator_request_cost == folded.total
    assert report.request_breakdown == {
        "s3": folded.s3, "dynamodb": folded.dynamodb,
        "simpledb": folded.simpledb, "sqs": folded.sqs}
    assert dataclasses.astuple(phase_cost(meter, book, report.tag)) \
        == dataclasses.astuple(folded)
    assert priced_breakdown(report.trace, meter, book)["total"] \
        == breakdown_as_dict(_allocating(
            price_record(record, book) for record in meter))


def test_tenant_partition_equals_the_allocating_partition(served):
    warehouse, report = served
    tracer = report.trace
    tagged = price_records(warehouse.cloud.meter.records(
        tag_prefix=report.tag), warehouse.cloud.price_book)
    allocated = {}
    for record, price in tagged:
        tenant = tenant_of_span(tracer, record.span_id)
        allocated[tenant] = allocated.get(tenant, CostBreakdown()).add(price)
    assert {"alpha", "beta"} <= set(allocated)
    assert _floats(partition_costs(tracer, tagged)) == _floats(allocated)


def test_span_direct_costs_equal_the_allocating_fold(served):
    warehouse, report = served
    meter, book = warehouse.cloud.meter, warehouse.cloud.price_book
    allocated = {}
    for record in meter:
        price = price_record(record, book)
        slot = allocated.get(record.span_id)
        allocated[record.span_id] = price if slot is None \
            else slot.add(price)
    assert _floats(span_direct_costs(report.trace, meter, book)) \
        == _floats(allocated)
