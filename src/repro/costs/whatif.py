"""What-if cost analysis: price sensitivity and scale projection.

§7's cost model is analytic, so questions the paper leaves implicit can
be answered directly:

- *price sensitivity*: how does the workload bill move if one price
  component changes (VM hourly price, per-get charges, egress...)?
  Useful because providers reprice constantly (the paper pins its
  numbers to "September-October 2012" for exactly that reason);
- *scale projection*: given measurements at our bench scale, what would
  the linear components cost at the paper's 20 000-document scale?
  Request counts, document transfers and processing time all scale
  linearly in ``|D|`` for the no-index path and sublinearly for indexed
  queries, so projections carry the relevant crossovers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

from repro.costs.estimator import query_cost
from repro.costs.metrics import DatasetMetrics, QueryMetrics
from repro.costs.model import query_cost_indexed, query_cost_no_index
from repro.costs.pricing import PriceBook

#: PriceBook fields a sensitivity sweep may scale.
SWEEPABLE_COMPONENTS = (
    "st_month_gb", "st_put", "st_get", "idx_month_gb", "idx_put",
    "idx_get", "qs_request", "egress_gb", "vm_hour",
)


def scaled_book(book: PriceBook, component: str,
                factor: float) -> PriceBook:
    """A copy of ``book`` with one price component multiplied."""
    if component not in SWEEPABLE_COMPONENTS:
        raise ValueError(
            "unknown price component {!r}; choose from {}".format(
                component, SWEEPABLE_COMPONENTS))
    if component == "vm_hour":
        return replace(book, vm_hour={name: price * factor
                                      for name, price
                                      in book.vm_hour.items()})
    return replace(book, **{component: getattr(book, component) * factor})


@dataclass(frozen=True)
class SensitivityPoint:
    """Workload cost under one scaled price component."""

    component: str
    factor: float
    workload_cost: float


def price_sensitivity(executions: Sequence, dataset: DatasetMetrics,
                      book: PriceBook,
                      factors: Sequence[float] = (0.5, 1.0, 2.0, 10.0),
                      ) -> List[SensitivityPoint]:
    """Sweep each of :data:`SWEEPABLE_COMPONENTS` over ``factors``;
    recost the workload.

    The output exposes which knob dominates the bill: a component whose
    x10 point barely moves the total is noise; the one that scales the
    total ~x10 is the bill's backbone (EC2, per Figure 12).
    """
    points: List[SensitivityPoint] = []
    for component in SWEEPABLE_COMPONENTS:
        for factor in factors:
            varied = scaled_book(book, component, factor)
            total = sum(query_cost(execution, dataset, varied)
                        for execution in executions)
            points.append(SensitivityPoint(
                component=component, factor=factor, workload_cost=total))
    return points


def dominant_component(points: Sequence[SensitivityPoint]) -> str:
    """The component whose x10 sweep inflates the bill the most."""
    base = {p.component: p.workload_cost for p in points
            if p.factor == 1.0}
    best_component, best_delta = "", -1.0
    for point in points:
        if point.factor != 10.0:
            continue
        delta = point.workload_cost - base[point.component]
        if delta > best_delta:
            best_component, best_delta = point.component, delta
    return best_component


@dataclass(frozen=True)
class ScaleProjection:
    """Projected per-query costs at a larger corpus scale."""

    query_name: str
    strategy_name: str
    measured_cost: float
    projected_cost: float
    scale_factor: float


def project_to_scale(execution, dataset: DatasetMetrics,
                     book: PriceBook,
                     target_documents: int) -> ScaleProjection:
    """Project one measured execution to ``target_documents``.

    Linear model: the no-index path scales every per-document term
    (S3 gets, processing time) by ``|D'|/|D|``; the indexed path scales
    retrieved documents and processing with the same factor but keeps
    fixed per-query terms — the gap between the two paths therefore
    *widens* with scale, which is why the paper's 20 000-document
    savings (92-97%) exceed our bench-scale ones.
    """
    factor = target_documents / dataset.documents
    metrics = QueryMetrics.of_execution(execution)
    scaled_metrics = QueryMetrics(
        query_name=metrics.query_name,
        result_bytes=int(metrics.result_bytes * factor),
        get_operations=metrics.get_operations,
        documents_fetched=int(round(metrics.documents_fetched * factor)),
        processing_hours=metrics.processing_hours * factor,
        instance_type=metrics.instance_type)
    scaled_dataset = DatasetMetrics(
        documents=target_documents,
        size_bytes=int(dataset.size_bytes * factor))
    if execution.strategy_name == "none":
        measured = query_cost_no_index(book, metrics, dataset)
        projected = query_cost_no_index(book, scaled_metrics,
                                        scaled_dataset)
    else:
        measured = query_cost_indexed(book, metrics)
        projected = query_cost_indexed(book, scaled_metrics)
    return ScaleProjection(
        query_name=execution.name,
        strategy_name=execution.strategy_name,
        measured_cost=measured,
        projected_cost=projected,
        scale_factor=factor)


def projected_savings(indexed_execution, scan_execution,
                      dataset: DatasetMetrics, book: PriceBook,
                      target_documents: int) -> float:
    """Projected cost saving of the index at the target scale."""
    indexed = project_to_scale(indexed_execution, dataset, book,
                               target_documents)
    scanned = project_to_scale(scan_execution, dataset, book,
                               target_documents)
    return 1.0 - indexed.projected_cost / scanned.projected_cost
