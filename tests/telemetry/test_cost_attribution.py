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
    meter = traced_warehouse.cloud.meter
    tracer = traced_warehouse.telemetry.tracer
    resolved = []
    walk = tracer.ancestor_ids
    monkeypatch.setattr(tracer, "ancestor_ids",
                        lambda span_id: resolved.append(span_id)
                        or walk(span_id))
    span_inclusive_costs(tracer, meter, traced_warehouse.cloud.price_book)
    assert sorted(resolved) == sorted({r.span_id for r in meter} - {0})
    assert len(resolved) < len(meter)


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
