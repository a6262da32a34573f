"""Cost-attribution tests: span totals tie out to the estimator."""

from __future__ import annotations

import pytest

from repro.costs.estimator import _price_requests, activity_cost, price_record
from repro.telemetry import (priced_breakdown, span_direct_costs,
                             span_inclusive_costs)

pytestmark = pytest.mark.telemetry


def test_direct_span_costs_partition_the_estimator_total(traced_warehouse):
    meter = traced_warehouse.cloud.meter
    book = traced_warehouse.cloud.price_book
    tracer = traced_warehouse.telemetry.tracer
    estimator_total = _price_requests(meter, book).total
    direct = span_direct_costs(tracer, meter, book)
    summed = sum(breakdown.total for breakdown in direct.values())
    assert summed == pytest.approx(estimator_total, rel=1e-9)


def test_priced_breakdown_total_matches_estimator(traced_warehouse):
    meter = traced_warehouse.cloud.meter
    book = traced_warehouse.cloud.price_book
    tracer = traced_warehouse.telemetry.tracer
    breakdown = priced_breakdown(tracer, meter, book,
                                 metadata={"seed": 20130318})
    estimator_total = _price_requests(meter, book).total
    assert breakdown["total"]["total"] == pytest.approx(estimator_total,
                                                        rel=1e-9)
    per_span = sum(span["direct"]["total"] for span in breakdown["spans"])
    assert per_span + breakdown["untraced"]["total"] \
        == pytest.approx(estimator_total, rel=1e-9)
    assert breakdown["metadata"] == {"seed": 20130318}


def test_inclusive_costs_roll_up_to_root_spans(traced_warehouse):
    meter = traced_warehouse.cloud.meter
    book = traced_warehouse.cloud.price_book
    tracer = traced_warehouse.telemetry.tracer
    direct = span_direct_costs(tracer, meter, book)
    inclusive = span_inclusive_costs(tracer, meter, book)
    roots = tracer.roots()
    root_total = sum(inclusive[root.span_id].total for root in roots
                     if root.span_id in inclusive)
    traced_total = sum(breakdown.total
                       for span_id, breakdown in direct.items()
                       if span_id != 0)
    assert root_total == pytest.approx(traced_total, rel=1e-9)
    for span_id, breakdown in direct.items():
        if span_id == 0:
            continue
        assert inclusive[span_id].total >= breakdown.total - 1e-15


def test_workload_report_costs_match_span_rollup(traced_warehouse):
    meter = traced_warehouse.cloud.meter
    book = traced_warehouse.cloud.price_book
    tracer = traced_warehouse.telemetry.tracer
    report = traced_warehouse.report
    inclusive = span_inclusive_costs(tracer, meter, book)
    assert report.span_id in inclusive
    assert report.cost.total \
        == pytest.approx(inclusive[report.span_id].total, rel=1e-12)
    for execution in report.executions:
        assert execution.span_id > 0
        assert execution.cost is not None
        assert execution.cost.total \
            == pytest.approx(inclusive[execution.span_id].total, rel=1e-12)
        # A query's requests are a subset of its workload's.
        assert execution.cost.total <= report.cost.total + 1e-15


def test_activity_cost_slices_by_attribution(traced_warehouse):
    meter = traced_warehouse.cloud.meter
    book = traced_warehouse.cloud.price_book
    build_total = activity_cost(meter, book, "index-build").total
    summed = sum(price_record(record, book).total
                 for record in meter.records(activity="index-build"))
    assert build_total == pytest.approx(summed, rel=1e-12)
    assert build_total > 0
    workload_total = activity_cost(meter, book, "workload").total
    assert workload_total > 0
    # Per-query slicing flows through span ids, not tags, so the two
    # phase activities plus upload cover every tagged record.
    upload_total = activity_cost(meter, book, "upload").total
    untagged = sum(price_record(record, book).total
                   for record in meter.records(tag=""))
    assert build_total + workload_total + upload_total + untagged \
        == pytest.approx(_price_requests(meter, book).total, rel=1e-9)


def _reference_inclusive(tracer, records, book):
    """The fold as first written: one chain walk and one fresh
    ``CostBreakdown`` per record x ancestor."""
    out = {}
    for record in records:
        priced = price_record(record, book)
        targets = list(tracer.ancestor_ids(record.span_id)) or [0]
        for target in targets:
            slot = out.get(target)
            out[target] = priced if slot is None else slot.add(priced)
    return out


def test_inclusive_fold_keeps_every_bit_of_the_per_record_fold(
        traced_warehouse):
    meter = traced_warehouse.cloud.meter
    book = traced_warehouse.cloud.price_book
    tracer = traced_warehouse.telemetry.tracer
    inclusive = span_inclusive_costs(tracer, meter, book)
    # Dataclass ``==``: all six dollar fields, no tolerance.
    assert inclusive == _reference_inclusive(tracer, meter, book)
    # In-place accumulation must not alias one record into two slots.
    assert len({id(slot) for slot in inclusive.values()}) == len(inclusive)


def test_ancestor_chain_is_resolved_once_per_span(traced_warehouse,
                                                  monkeypatch):
    """Each span is walked past once, its chain built on its parent's:
    the spans passed are exactly the records' spans and their
    ancestors, whether every slot is folded or only the report's."""
    meter = traced_warehouse.cloud.meter
    tracer = traced_warehouse.telemetry.tracer
    spans = {ancestor for record in meter
             for ancestor in tracer.ancestor_ids(record.span_id)}
    ancestor_ids = tracer.ancestor_ids

    def walk(span_id):
        for ancestor_id in ancestor_ids(span_id):
            yield ancestor_id
            passed.append(ancestor_id)  # the walk went on past it

    monkeypatch.setattr(tracer, "ancestor_ids", walk)
    for only in (None, {traced_warehouse.report.span_id}):
        passed = []
        span_inclusive_costs(tracer, meter,
                             traced_warehouse.cloud.price_book, only)
        assert sorted(passed) == sorted(spans)
        assert len(passed) < len(meter)


def test_unresolvable_span_ids_stay_untraced(traced_warehouse):
    book = traced_warehouse.cloud.price_book
    tracer = traced_warehouse.telemetry.tracer
    orphan = next(iter(traced_warehouse.cloud.meter))
    orphans = [orphan._replace(span_id=10 ** 9)] * 2
    assert set(span_inclusive_costs(tracer, orphans, book)) == {0}


def test_suffix_view_prices_a_phase_to_the_last_bit(traced_warehouse):
    """Spans opened after a meter mark own only later records, so the
    suffix fold reproduces their whole-meter slots exactly; older spans
    and the untraced slot are partial there."""
    meter = traced_warehouse.cloud.meter
    book = traced_warehouse.cloud.price_book
    tracer = traced_warehouse.telemetry.tracer
    report = traced_warehouse.report
    whole = span_inclusive_costs(tracer, meter, book)
    assert report.cost == whole[report.span_id]
    for execution in report.executions:
        assert execution.cost == whole[execution.span_id]
    first = next(i for i, record in enumerate(meter)
                 if report.span_id in tracer.ancestor_ids(record.span_id))
    assert first > 0  # upload and build came before the workload
    suffix = span_inclusive_costs(tracer, meter.since(first), book)
    workload_spans = {span_id for span_id in whole if span_id
                      and report.span_id in tracer.ancestor_ids(span_id)}
    assert workload_spans and workload_spans <= set(suffix)
    for span_id in workload_spans:
        assert suffix[span_id] == whole[span_id]
    assert set(suffix) < set(whole)


# -- the report builders fold only the spans they return ------------------

SERVICES = ("s3", "dynamodb", "simpledb", "ec2", "sqs", "egress")


def _assert_slot_exact(slot, whole_slot):
    for service in SERVICES:
        assert getattr(slot, service) == getattr(whole_slot, service), \
            service


def _whole(warehouse):
    return span_inclusive_costs(warehouse.telemetry.tracer,
                                warehouse.cloud.meter,
                                warehouse.cloud.price_book)


def test_closed_loop_reports_keep_the_whole_tree_slots():
    from tests.warehouse.test_priced_once import _corpus

    from repro.query.workload import workload_query
    from repro.warehouse import Warehouse

    warehouse = Warehouse()
    warehouse.upload_corpus(_corpus())
    index = warehouse.build_index("2LUPI", config={"loaders": 2})
    executions = [warehouse.run_query(workload_query(name), index)
                  for name in ("q1", "q2", "q6") * 2]
    report = warehouse.run_workload(
        [workload_query(name) for name in ("q8", "q9")], index,
        config={"workers": 2})
    whole = _whole(warehouse)
    _assert_slot_exact(report.cost, whole[report.span_id])
    for execution in executions + report.executions:
        _assert_slot_exact(execution.cost, whole[execution.span_id])


def _reference_tenant_costs(tracer, records, book):
    """Per-tenant request dollars by a fresh ancestor walk per record."""
    out = {}
    for record in records:
        tenant = "shared"
        for span_id in tracer.ancestor_ids(record.span_id):
            owner = tracer.get(span_id).attributes.get("tenant")
            if owner is not None:
                tenant = owner
                break
        price = price_record(record, book)
        out[tenant] = price if tenant not in out else out[tenant].add(price)
    return out


def test_two_tenant_serve_reports_keep_the_whole_tree_slots():
    from tests.warehouse.test_priced_once import _two_tenant_serve

    warehouse, report = _two_tenant_serve(history=2)
    assert report.cost_tied_out and report.tenants_tied_out
    tracer = warehouse.telemetry.tracer
    whole = _whole(warehouse)
    assert report.request_cost == whole[report.span_id].total
    spans = {span.attributes["query_id"]: span.span_id
             for span in tracer.spans if span.name == "query"}
    assert report.queries
    for outcome in report.queries:
        assert outcome.cost == whole[spans[outcome.query_id]].total
    reference = _reference_tenant_costs(
        tracer, warehouse.cloud.meter.records(tag_prefix=report.tag),
        warehouse.cloud.price_book)
    for bill in report.tenant_bills:
        for service in ("s3", "dynamodb", "simpledb", "sqs"):
            assert bill.breakdown[service] \
                == getattr(reference[bill.tenant], service)


def test_mutation_reports_keep_the_whole_tree_slots():
    from tests.warehouse.test_priced_once import _live_warehouse

    warehouse, live = _live_warehouse()
    uris = sorted(warehouse.corpus.data)[:3]
    reports = [warehouse.delete_documents(live, uris),
               warehouse.compact_index(live)]
    whole = _whole(warehouse)
    for report in reports:
        assert report.cost_tied_out
        _assert_slot_exact(report.span_cost, whole[report.span_id])


def test_a_span_outside_the_reported_set_gets_no_slot(traced_warehouse):
    meter = traced_warehouse.cloud.meter
    book = traced_warehouse.cloud.price_book
    tracer = traced_warehouse.telemetry.tracer
    report = traced_warehouse.report
    only = {report.span_id, report.executions[0].span_id, 10 ** 9}
    reported = span_inclusive_costs(tracer, meter, book, only)
    assert set(reported) == only - {10 ** 9}
    whole = span_inclusive_costs(tracer, meter, book)
    for span_id, slot in reported.items():
        _assert_slot_exact(slot, whole[span_id])
    # In-place accumulation must not alias one record into two slots.
    assert len({id(slot) for slot in reported.values()}) == len(reported)


def test_unresolvable_span_ids_land_in_a_reported_slot_0(traced_warehouse):
    book = traced_warehouse.cloud.price_book
    tracer = traced_warehouse.telemetry.tracer
    report = traced_warehouse.report
    orphan = next(iter(traced_warehouse.cloud.meter))
    orphans = [orphan._replace(span_id=10 ** 9)] * 2
    assert set(span_inclusive_costs(tracer, orphans, book,
                                    {0, report.span_id})) == {0}
    assert span_inclusive_costs(tracer, orphans, book,
                                {report.span_id}) == {}
