"""Figure 15 (extension, not in the paper) — cost sensitivity and the
scale projection behind the paper's headline savings.

Two analyses over the measured LUP workload:

1. **price sensitivity**: every §7.2 price component is swept x0.5 /
   x2 / x10 and the workload re-billed; the component whose sweep moves
   the bill the most is the bill's backbone — the paper's Figure 12
   conclusion ("the cost of using EC2 clearly dominates") recovered
   analytically.

2. **scale projection**: the measured indexed/no-index query costs are
   projected to the paper's 20 000-document scale with the §7.3 linear
   model.  The projection widens most savings, but by about one point:
   q6 and q9 stay near 0.6, below the paper's 92-97% band, because
   their results lie in a fixed share of the documents, all of which
   an exact index must still fetch at any scale.
"""

from __future__ import annotations

from repro.bench.reporting import ExperimentResult, format_money
from repro.costs.whatif import (dominant_component, price_sensitivity,
                                projected_savings)
from repro.query.workload import WORKLOAD_ORDER

PAPER_CLAIM = (
    "(not in the paper — implicit in §7/§8.3) EC2 dominates the bill; "
    "the 92-97% savings were measured at 20 000-document scale")
OUR_CLAIM = (
    "VM price is the dominant sensitivity component; projecting the "
    "measured costs to 20 000 documents with the §7.3 linear model "
    "never shrinks a saving (within 0.02) and widens it on at least 8 "
    "of 10 queries; the worst projected saving is above 0.5 and the "
    "best above 0.9, yet q6 and q9 stay below the paper's band")

PAPER_DOCUMENTS = 20000


def run(ctx) -> ExperimentResult:
    """Regenerate this artefact from the shared context."""
    book = ctx.warehouse.cloud.price_book
    dataset = ctx.dataset_metrics
    indexed = ctx.workload_report("LUP", "xl").executions
    scanned = ctx.workload_report(None, "xl").executions

    points = price_sensitivity(list(indexed) + list(scanned), dataset,
                               book, factors=(1.0, 10.0))
    base = next(p.workload_cost for p in points if p.factor == 1.0)
    rows = []
    for point in sorted(points, key=lambda p: -p.workload_cost):
        if point.factor != 10.0:
            continue
        rows.append([point.component,
                     format_money(point.workload_cost),
                     round(point.workload_cost / base, 2)])

    series = {}
    for query_name, indexed_execution, scan_execution in zip(
            WORKLOAD_ORDER, indexed, scanned):
        measured = 1.0 - (
            _cost(indexed_execution, dataset, book)
            / _cost(scan_execution, dataset, book))
        projected = projected_savings(indexed_execution, scan_execution,
                                      dataset, book, PAPER_DOCUMENTS)
        series[query_name] = {"measured": round(measured, 4),
                              "paper-scale": round(projected, 4)}

    return ExperimentResult(
        experiment_id="Figure 15 (ext)",
        title="Price sensitivity (x10 sweeps) and savings projected to "
              "{} documents".format(PAPER_DOCUMENTS),
        headers=["component x10", "workload cost", "vs base"],
        rows=rows,
        series=series,
        notes=["dominant component: " + dominant_component(points)])


def _cost(execution, dataset, book):
    from repro.costs.estimator import query_cost
    return query_cost(execution, dataset, book)


def check(result: ExperimentResult, ctx) -> None:
    """Assert the paper's qualitative claims on the result."""
    assert "dominant component: vm_hour" in result.notes[0], \
        "EC2 should dominate the bill (Figure 12)"
    improved = 0
    for query_name, values in result.series.items():
        assert values["paper-scale"] >= values["measured"] - 0.02, \
            "{}: projected savings should not shrink with scale".format(
                query_name)
        improved += int(values["paper-scale"] > values["measured"])
    assert improved >= 8, "scale should widen savings on most queries"
    # At paper scale, savings approach the paper's band.
    at_scale = [values["paper-scale"] for values in result.series.values()]
    assert min(at_scale) > 0.5
    assert max(at_scale) > 0.9