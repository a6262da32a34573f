"""Measured costs: price the meter records of a run (§8.3).

Where :mod:`repro.costs.model` evaluates the paper's closed formulas,
this module reproduces what AWS's bill would say: every metered request
is priced per the price book, instance-hours come from the warehouse's
phase records, and outbound transfer (the results fetched by the front
end — "AWSDown" in Figure 12) is priced per GB.  The output is a
per-service :class:`CostBreakdown`, the shape of Table 6 and Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.costs.model import query_cost_indexed, query_cost_no_index
from repro.costs.metrics import DatasetMetrics, QueryMetrics
from repro.costs.pricing import PriceBook
from repro.sim import Meter

GB = 1024.0 ** 3


@dataclass
class CostBreakdown:
    """Dollars per service — the Table 6 / Figure 12 decomposition."""

    s3: float = 0.0
    dynamodb: float = 0.0
    simpledb: float = 0.0
    ec2: float = 0.0
    sqs: float = 0.0
    egress: float = 0.0  # "AWSDown"

    @property
    def total(self) -> float:
        """Sum over all services."""
        return (self.s3 + self.dynamodb + self.simpledb + self.ec2
                + self.sqs + self.egress)

    @property
    def index_store(self) -> float:
        """Whichever key-value store the run used."""
        return self.dynamodb + self.simpledb

    def add(self, other: "CostBreakdown") -> "CostBreakdown":
        """Component-wise sum of two breakdowns."""
        return CostBreakdown(
            s3=self.s3 + other.s3,
            dynamodb=self.dynamodb + other.dynamodb,
            simpledb=self.simpledb + other.simpledb,
            ec2=self.ec2 + other.ec2,
            sqs=self.sqs + other.sqs,
            egress=self.egress + other.egress)

    def accumulate(self, other: "CostBreakdown") -> None:
        """In-place :meth:`add`: the same sums, no new object."""
        self.s3 += other.s3
        self.dynamodb += other.dynamodb
        self.simpledb += other.simpledb
        self.ec2 += other.ec2
        self.sqs += other.sqs
        self.egress += other.egress


def price_record(record, book: PriceBook) -> CostBreakdown:
    """Price a single meter record against the price book.

    The unit the telemetry layer composes: per-span trace pricing
    (:mod:`repro.telemetry.costing`) and the phase/scrub totals below
    are both folds of this function over different record subsets.
    Unpriced pseudo-services (``ec2`` placement markers,
    ``consistency``) yield an all-zero breakdown.
    """
    out = CostBreakdown()
    if record.service == "s3":
        if record.operation == "put":
            out.s3 += book.st_put * record.count
        elif record.operation in ("get", "head", "list"):
            out.s3 += book.st_get * record.count
    elif record.service == "dynamodb":
        if record.operation in ("put", "delete"):
            out.dynamodb += book.idx_put * record.count
        else:
            # get, scan: read-capacity operations.
            out.dynamodb += book.idx_get * record.count
    elif record.service == "simpledb":
        if record.operation == "put":
            out.simpledb += book.simpledb_put * record.count
        else:
            out.simpledb += book.simpledb_get * record.count
    elif record.service == "sqs":
        out.sqs += book.qs_request * record.count
    return out


def price_records(records, book: PriceBook) -> list:
    """``(record, price)`` pairs: priced once, folded as often as needed."""
    return [(record, price_record(record, book)) for record in records]


def _price_requests(meter: Meter, book: PriceBook, tag_prefix: str = "",
                    activity: Optional[str] = None) -> CostBreakdown:
    """Price all metered API requests matching the attribution filter."""
    out = CostBreakdown()
    for record in meter.records(tag_prefix=tag_prefix, activity=activity):
        out.accumulate(price_record(record, book))
    return out


def activity_cost(meter: Meter, book: PriceBook,
                  activity: str) -> CostBreakdown:
    """Request cost of one structured activity (``"query"``,
    ``"index-build"``, ``"scrub"``, ...) across the whole run."""
    return _price_requests(meter, book, activity=activity)


def phase_cost(meter: Meter, book: PriceBook, tag_prefix: str,
               vm_hours_by_type: Optional[dict] = None,
               result_bytes: int = 0) -> CostBreakdown:
    """Total measured cost of one tagged phase.

    Parameters
    ----------
    meter, book:
        The run's meter and the provider's prices.
    tag_prefix:
        Which records to price (phase tags are hierarchical).
    vm_hours_by_type:
        Instance-hours by type for the phase (from
        :class:`~repro.warehouse.warehouse.PhaseRecord`).
    result_bytes:
        Bytes of results transferred out of the cloud during the phase
        (priced as egress / "AWSDown").
    """
    out = _price_requests(meter, book, tag_prefix)
    for type_name, hours in (vm_hours_by_type or {}).items():
        out.ec2 += book.vm_hourly(type_name) * hours
    out.egress = book.egress_gb * result_bytes / GB
    return out


def scrub_cost(warehouse, book: Optional[PriceBook] = None,
               tag_prefix: str = "scrub:") -> CostBreakdown:
    """Measured cost of integrity scrubbing (and its repairs).

    Scrub work is ordinary billed traffic — DynamoDB scans and deletes,
    S3 inventory and document reads, index re-puts.  Records under the
    ``consistency`` pseudo-service (downgrade/repair markers) carry no
    price by design: their cost shows up in the real services they
    caused traffic on.
    """
    book = book or warehouse.cloud.price_book
    return _price_requests(warehouse.cloud.meter, book, tag_prefix)


def build_phase_cost(warehouse, built_index, book: Optional[PriceBook] = None,
                     ) -> CostBreakdown:
    """Measured cost of one index build (a Table 6 row)."""
    book = book or warehouse.cloud.price_book
    tag = built_index.report.tag
    phases = [p for p in warehouse.phases if p.tag == tag]
    vm_hours = {}
    for phase in phases:
        vm_hours[phase.instance_type] = (
            vm_hours.get(phase.instance_type, 0.0) + phase.vm_hours)
    return phase_cost(warehouse.cloud.meter, book, tag,
                      vm_hours_by_type=vm_hours)


def query_cost(execution, dataset: DatasetMetrics,
               book: PriceBook) -> float:
    """Charged cost of one query execution (Figure 11's bars).

    Applies the §7.3 formula matching the execution's mode (indexed vs
    no-index) to its measured metrics.
    """
    metrics = QueryMetrics.of_execution(execution)
    if execution.strategy_name == "none":
        return query_cost_no_index(book, metrics, dataset)
    return query_cost_indexed(book, metrics)


def workload_cost(executions: Iterable, dataset: DatasetMetrics,
                  book: PriceBook) -> float:
    """Sum of per-query charged costs over a workload run."""
    return sum(query_cost(e, dataset, book) for e in executions)


def workload_cost_breakdown(executions: Iterable, dataset: DatasetMetrics,
                            book: PriceBook) -> CostBreakdown:
    """Figure 12: the workload's cost decomposed per service.

    Derived from the same per-execution metrics the formulas use, so the
    breakdown's total equals :func:`workload_cost`.
    """
    out = CostBreakdown()
    executions = list(executions)
    for execution in executions:
        metrics = QueryMetrics.of_execution(execution)
        vm_hourly = book.vm_hourly(execution.instance_type)
        out.ec2 += vm_hourly * metrics.processing_hours
        out.egress += book.egress_gb * metrics.result_gb
        out.sqs += book.qs_request * 6  # 3 front-end + 3 processor side
        out.s3 += book.st_put  # results written
        out.s3 += book.st_get  # results fetched by the front end
        if execution.strategy_name == "none":
            out.s3 += book.st_get * dataset.documents
        else:
            out.s3 += book.st_get * metrics.documents_fetched
            out.dynamodb += book.idx_get * metrics.get_operations
    return out
